#include "explore/search.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <deque>
#include <functional>
#include <iomanip>
#include <mutex>
#include <optional>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "explore/pool.hpp"
#include "trace/stats.hpp"
#include "workload/rng.hpp"

namespace stlm::expl {

const char* objective_name(Objective o) {
  switch (o) {
    case Objective::Throughput: return "throughput";
    case Objective::Goodput: return "goodput";
    case Objective::P99: return "p99";
    case Objective::Cost: return "cost";
  }
  return "?";
}

double objective_value(const ExplorationRow& r, Objective o) {
  switch (o) {
    case Objective::Throughput: return -r.throughput_mbps();
    case Objective::Goodput: return -r.goodput_mbps;
    case Objective::P99: return r.p99_latency_ns;
    case Objective::Cost: return r.cost;
  }
  return 0.0;
}

bool dominates(const ExplorationRow& a, const ExplorationRow& b,
               const std::vector<Objective>& objectives) {
  bool strict = false;
  for (Objective o : objectives) {
    const double va = objective_value(a, o);
    const double vb = objective_value(b, o);
    if (va > vb) return false;
    if (va < vb) strict = true;
  }
  return strict;
}

namespace {

// Non-dominated rows of a row-major n x k matrix of minimized objective
// values, as ascending row indices. Rows are visited in lexicographic
// order of their vectors, and a row joins the front unless a row already
// on it dominates it. A dominator sorts strictly before the row it
// dominates, and dominance is transitive, so whatever dominates a row
// has a front member that dominates it by then; a later row never
// dominates an earlier one, so the front only grows. Equal vectors do not
// dominate each other and survive together. O(n log n + n * |front|).
std::vector<std::size_t> front_of(const std::vector<double>& values,
                                  std::size_t n, std::size_t k) {
  const double* const v = values.data();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::lexicographical_compare(v + a * k, v + a * k + k, v + b * k,
                                        v + b * k + k);
  });
  const auto dominated_by = [&](std::size_t a, std::size_t b) {
    bool strict = false;
    for (std::size_t j = 0; j < k; ++j) {
      if (v[a * k + j] > v[b * k + j]) return false;
      if (v[a * k + j] < v[b * k + j]) strict = true;
    }
    return strict;
  };
  std::vector<std::size_t> front;
  for (const std::size_t i : order) {
    if (std::none_of(front.begin(), front.end(),
                     [&](std::size_t f) { return dominated_by(f, i); })) {
      front.push_back(i);
    }
  }
  std::sort(front.begin(), front.end());
  return front;
}

// The objective matrix front_of() reads: row i holds the objective
// values of row_at(i).
template <typename RowAt>
std::vector<double> objective_matrix(std::size_t n, RowAt row_at,
                                     const std::vector<Objective>& objectives) {
  std::vector<double> values;
  values.reserve(n * objectives.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (const Objective o : objectives) {
      values.push_back(objective_value(row_at(i), o));
    }
  }
  return values;
}

// FNV-1a over the cell key "<platform name>\n<workload index>": the
// cell's table key and the seed of its mutation stream, so a pure
// function of the cell's identity, never of evaluation order.
std::uint64_t cell_hash(std::string_view platform_name, std::size_t workload) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::string_view s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  char digits[24];
  const auto res = std::to_chars(digits, digits + sizeof digits, workload);
  mix(platform_name);
  mix("\n");
  mix(std::string_view(digits, static_cast<std::size_t>(res.ptr - digits)));
  return h;
}

// One (platform, workload) candidate. Cells live in a std::deque so
// growth during a rung (mutation proposals) never moves existing cells:
// worker tasks hold stable Cell pointers, and the deque itself is only
// touched under the driver mutex.
constexpr std::size_t kNoDepth = static_cast<std::size_t>(-1);

struct Cell {
  core::Platform platform;
  std::size_t workload = 0;  // index into the workload list
  std::uint64_t hash = 0;    // cell_hash(platform.name, workload)
  std::size_t depth = 0;     // mutation hops from a seed candidate
  // Depth this cell last proposed neighbors at (kNoDepth = never). A
  // later, shorter discovery path relaxes `depth` below it and the cell
  // re-expands, so depths converge to breadth-first distances.
  std::size_t expanded_at = kNoDepth;
  ExplorationRow row;
  bool evaluated = false;
  bool done = false;        // row is final: the workload completed
  bool deadlocked = false;  // stopped before its horizon, not completed
  bool alive = true;        // survived every selection so far
  bool off_front = false;   // dominated at the last selection (pad keep)
};

// A cell's turn to propose neighbors at depth `at`; `first` keeps
// re-expansions out of the proposal counter.
struct Expansion {
  Cell* cell;
  std::size_t at;
  bool first;
};

}  // namespace

std::vector<std::size_t> pareto_front(
    const std::vector<ExplorationRow>& rows,
    const std::vector<Objective>& objectives) {
  return front_of(
      objective_matrix(
          rows.size(),
          [&](std::size_t i) -> const ExplorationRow& { return rows[i]; },
          objectives),
      rows.size(), objectives.size());
}

SearchDriver::SearchDriver(SearchConfig cfg) : cfg_(std::move(cfg)) {}

SearchReport SearchDriver::run(Explorer& ex,
                               const std::vector<core::Platform>& platforms,
                               const std::vector<WorkloadCase>& workloads) {
  STLM_ASSERT(!cfg_.horizons.empty(), "SearchDriver: no horizons configured");
  STLM_ASSERT(!cfg_.objectives.empty(),
              "SearchDriver: no objectives configured");
  SearchReport report;
  const std::size_t n_wl = workloads.size();
  ex.last_spawn_failures_ = 0;  // summed over the rungs' pools below

  // Sized for the seeds plus every point of `space`, so a search whose
  // seeds lie in its space never rehashes the table under the lock.
  std::size_t space_points = 0;
  if (cfg_.mutation_depth > 0) {
    const core::KnobSpace& sp = cfg_.space;
    space_points = sp.buses.size() * sp.arbs.size() * sp.bus_cycles.size() *
                   sp.data_widths.size() * sp.max_outstanding.size() *
                   sp.fast_targets.size();
  }
  std::deque<Cell> cells;
  std::unordered_multimap<std::uint64_t, Cell*> seen;  // by Cell::hash
  seen.reserve((platforms.size() + space_points) * n_wl);
  std::mutex m;  // guards cells growth, seen, depths, and report counters
  // Names are compared on a hash hit, so colliding cells stay distinct.
  const auto find_cell = [&seen](std::uint64_t hash, const std::string& name,
                                 std::size_t workload) -> Cell* {
    for (auto [it, end] = seen.equal_range(hash); it != end; ++it) {
      Cell* const c = it->second;
      if (c->workload == workload && c->platform.name == name) return c;
    }
    return nullptr;
  };
  for (const auto& p : platforms) {
    for (std::size_t w = 0; w < n_wl; ++w) {
      const std::uint64_t h = cell_hash(p.name, w);
      if (find_cell(h, p.name, w) != nullptr) continue;
      Cell& c = cells.emplace_back();
      c.platform = p;
      c.workload = w;
      c.hash = h;
      seen.emplace(h, &c);
    }
  }
  const std::size_t n_seed_cells = cells.size();
  const std::size_t n_obj = cfg_.objectives.size();

  const std::size_t n_rungs = cfg_.horizons.size();
  for (std::size_t r = 0; r < n_rungs; ++r) {
    RungStats rs;
    rs.horizon = cfg_.horizons[r];

    // Abort time for this rung's dominated survivors, from the longest
    // completion time any completed cell has demonstrated. Computed from
    // settled state between rungs, so it is deterministic.
    Time abort_at = Time::zero();
    if (r > 0 && cfg_.abort_slack > 0.0) {
      double max_done_us = 0.0;
      for (const Cell& c : cells) {
        if (c.evaluated && c.done) {
          max_done_us = std::max(max_done_us, c.row.sim_time_us);
        }
      }
      if (max_done_us > 0.0) {
        abort_at = Time::us(static_cast<std::uint64_t>(
            std::ceil(cfg_.abort_slack * max_done_us)));
      }
    }

    std::vector<Cell*> to_eval;
    for (Cell& c : cells) {
      if (!c.alive) continue;
      if (c.done) {
        ++rs.carried;  // final row carries forward — never re-simulated
      } else {
        to_eval.push_back(&c);
      }
    }

    WorkPool pool(cfg_.n_threads == 0 ? 1 : cfg_.n_threads,
                  ex.thread_factory_);
    const bool mutate = r == 0 && cfg_.mutation_depth > 0;
    const Time horizon = rs.horizon;

    // Mutation grows the candidate set to the breadth-first closure of
    // the pick graph over completed cells: the picks per cell derive
    // from the cell's identity (never its depth or finish order), and a
    // proposal that reaches an admitted cell by a shorter path relaxes
    // its depth — re-expanding it if the lower depth newly clears
    // mutation_depth. At the drain fixpoint every depth is the minimal
    // hop count, so the admitted *set* (and the proposal counters) are
    // a pure function of (seeds, space, seed), at any thread count. The
    // pool's FIFO order admits most cells by a shortest path already,
    // so re-expansions stay rare.
    //
    // `m` guards bookkeeping only: table lookups and inserts, depths and
    // expansion marks, and the report counters. Neighbor enumeration,
    // key hashing and every pool.submit happen outside it; a task claims
    // its follow-up work under the lock and submits it after unlocking.
    std::function<void(Cell*)> eval_cell;
    std::function<void(const Expansion&)> expand_cell;

    // Caller holds `m`.
    const auto wants_expansion = [&](const Cell& c) {
      return c.done && c.depth < cfg_.mutation_depth && c.expanded_at > c.depth;
    };
    const auto claim_expansion = [](Cell& c) {
      const Expansion e{&c, c.depth, c.expanded_at == kNoDepth};
      c.expanded_at = c.depth;
      return e;
    };
    const auto submit_eval = [&](Cell* c) {
      pool.submit([&eval_cell, c] { eval_cell(c); });
    };
    const auto submit_expansion = [&](const Expansion& e) {
      pool.submit([&expand_cell, e] { expand_cell(e); });
    };

    expand_cell = [&](const Expansion& e) {
      const Cell& c = *e.cell;
      auto neighbors = core::grid_neighbors(c.platform, cfg_.space);
      if (neighbors.empty()) return;
      workload::SplitMix64 g(workload::SplitMix64::derive(cfg_.seed, c.hash));
      const std::size_t picks = std::min(cfg_.mutation_limit, neighbors.size());
      std::vector<std::uint64_t> keys(picks);
      for (std::size_t k = 0; k < picks; ++k) {
        const std::size_t j =
            k + static_cast<std::size_t>(g.uniform(0, neighbors.size() - 1 - k));
        std::swap(neighbors[k], neighbors[j]);
        keys[k] = cell_hash(neighbors[k].name, c.workload);
      }
      std::vector<Cell*> fresh;
      std::vector<Expansion> again;
      fresh.reserve(picks);
      {
        std::lock_guard<std::mutex> lock(m);
        if (e.first) report.proposed += picks;
        for (std::size_t k = 0; k < picks; ++k) {
          Cell* const hit = find_cell(keys[k], neighbors[k].name, c.workload);
          if (hit == nullptr) {
            Cell& nc = cells.emplace_back();
            nc.platform = std::move(neighbors[k]);
            nc.workload = c.workload;
            nc.hash = keys[k];
            nc.depth = e.at + 1;
            seen.emplace(keys[k], &nc);
            fresh.push_back(&nc);
          } else if (hit->depth > e.at + 1) {
            hit->depth = e.at + 1;
            if (wants_expansion(*hit)) again.push_back(claim_expansion(*hit));
          }
        }
      }
      for (Cell* const f : fresh) submit_eval(f);
      for (const Expansion& x : again) submit_expansion(x);
    };

    eval_cell = [&](Cell* c) {
      // A dominated survivor runs only up to abort_at; one that has not
      // finished by then is pruned. A cell that stops short of the time
      // it was run to has nothing left to run: it is deadlocked, and
      // final as it stands. (A run cut by its horizon stops exactly
      // there, and sim_time_us converts sim.now() the same way.)
      const bool cut_short = c->off_front && abort_at > Time::zero() &&
                             abort_at < horizon;
      const Time run_to = cut_short ? abort_at : horizon;
      c->row = ex.evaluate(c->platform, workloads[c->workload], run_to);
      c->deadlocked = !c->row.completed &&
                      c->row.sim_time_us < run_to.to_seconds() * 1e6;
      c->row.pruned = cut_short && !c->row.completed && !c->deadlocked;
      c->evaluated = true;
      std::optional<Expansion> next;
      {
        std::lock_guard<std::mutex> lock(m);
        c->done = c->row.completed;
        ++rs.evaluated;
        if (c->row.pruned) ++rs.aborted;
        if (mutate && wants_expansion(*c)) next = claim_expansion(*c);
      }
      if (next) submit_expansion(*next);
    };

    for (Cell* c : to_eval) submit_eval(c);
    pool.run();
    ex.last_spawn_failures_ += pool.spawn_failures();
    if (pool.first_error()) std::rethrow_exception(pool.first_error());
    if (mutate) {
      // Every proposal either admitted a new cell or hit a seen one;
      // both totals are settled, so the difference is the rejects.
      report.duplicates = report.proposed - (seen.size() - n_seed_cells);
    }

    // Per-workload-group bookkeeping over canonically sorted survivors —
    // execution order is fully rinsed out here.
    for (std::size_t g = 0; g < n_wl; ++g) {
      std::vector<Cell*> group;
      for (Cell& c : cells) {
        if (!c.alive || c.workload != g) continue;
        if (c.row.pruned || c.deadlocked) {
          // Both are terminal verdicts: a truncated or deadlocked row
          // never competes with completed rows, and is never re-run.
          c.alive = false;
          ++(c.deadlocked ? report.deadlocked_cells : report.pruned_cells);
          continue;
        }
        group.push_back(&c);
      }
      std::sort(group.begin(), group.end(), [](const Cell* a, const Cell* b) {
        return a->platform.name < b->platform.name;
      });
      const std::vector<double> values = objective_matrix(
          group.size(),
          [&](std::size_t i) -> const ExplorationRow& { return group[i]->row; },
          cfg_.objectives);
      const auto front = front_of(values, group.size(), n_obj);

      if (r + 1 < n_rungs) {
        // Successive-halving selection: the front always survives; pads
        // fill toward the keep cap; the rest is cut.
        std::vector<char> keep(group.size(), 0);
        for (const std::size_t i : front) keep[i] = 1;
        std::size_t kept = front.size();
        const auto frac = [&](double f) {
          return static_cast<std::size_t>(
              std::ceil(f * static_cast<double>(group.size())));
        };
        const std::size_t cap = std::max(frac(cfg_.keep_fraction), kept);
        const std::size_t pad = frac(cfg_.pad_fraction);
        std::vector<std::size_t> order(group.size());
        for (std::size_t o = 0; o < n_obj && kept < cap; ++o) {
          // Ties on the objective fall to the index, which is name order.
          for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
          std::sort(order.begin(), order.end(),
                    [&](std::size_t a, std::size_t b) {
                      const double va = values[a * n_obj + o];
                      const double vb = values[b * n_obj + o];
                      if (va != vb) return va < vb;
                      return a < b;
                    });
          for (std::size_t i = 0; i < pad && i < order.size(); ++i) {
            if (kept >= cap) break;
            if (!keep[order[i]]) {
              keep[order[i]] = 1;
              ++kept;
            }
          }
        }
        for (std::size_t i = 0; i < group.size(); ++i) {
          if (!keep[i]) {
            group[i]->alive = false;
            ++rs.cut;
          } else {
            group[i]->off_front = true;
          }
        }
        for (const std::size_t i : front) group[i]->off_front = false;
      } else {
        for (const std::size_t i : front) {
          report.frontier.push_back(group[i]->row);
          report.frontier_platforms.push_back(group[i]->platform);
        }
      }
    }
    if (r + 1 == n_rungs) report.full_horizon_evals = rs.evaluated;
    report.rungs.push_back(rs);
  }
  report.candidates_seen = seen.size();
  return report;
}

void SearchDriver::print_frontier(std::ostream& os,
                                  const SearchReport& report) {
  trace::ScopedOstreamFormat guard(os);
  std::size_t name_w = 20;
  std::size_t wl_w = 0;
  for (const auto& r : report.frontier) {
    name_w = std::max(name_w, r.platform.size());
    wl_w = std::max(wl_w, r.workload.size());
  }
  const bool with_workload = wl_w > 0;
  const int nw = static_cast<int>(name_w + 2);
  const int ww = static_cast<int>(std::max<std::size_t>(wl_w, 8) + 2);
  // Sim columns only — no wall clock — so a given report prints byte-
  // identically across runs and hosts. Separator sized from the header
  // it underlines (print_table's hard-coded-width bug, not repeated).
  std::ostringstream header;
  header << std::left << std::setw(nw) << "platform";
  if (with_workload) header << std::setw(ww) << "workload";
  header << std::right << std::setw(6) << "done" << std::setw(14)
         << "sim_time_us" << std::setw(14) << "thru_mbs" << std::setw(12)
         << "goodput_mbs" << std::setw(12) << "p50_ns" << std::setw(12)
         << "p99_ns" << std::setw(12) << "queue_ns" << std::setw(10)
         << "bus_util" << std::setw(10) << "txns" << std::setw(12) << "bytes"
         << std::setw(12) << "cost";
  os << header.str() << "\n";
  os << std::string(header.str().size(), '-') << "\n";
  for (const auto& r : report.frontier) {
    os << std::left << std::setw(nw) << r.platform;
    if (with_workload) os << std::setw(ww) << r.workload;
    os << std::right << std::setw(6) << (r.completed ? "yes" : "NO")
       << std::setw(14) << std::fixed << std::setprecision(2) << r.sim_time_us
       << std::setw(14) << std::setprecision(1) << r.throughput_mbps()
       << std::setw(12) << r.goodput_mbps << std::setw(12) << r.p50_latency_ns
       << std::setw(12) << r.p99_latency_ns << std::setw(12) << r.mean_queue_ns
       << std::setw(10) << std::setprecision(3) << r.bus_utilization
       << std::setw(10) << r.transactions << std::setw(12) << r.bytes
       << std::setw(12) << std::setprecision(1) << r.cost << "\n";
  }
  os << "rungs:";
  for (const auto& rs : report.rungs) {
    os << " [h=" << rs.horizon.to_string() << " eval=" << rs.evaluated
       << " carry=" << rs.carried << " cut=" << rs.cut
       << " abort=" << rs.aborted << "]";
  }
  os << "\ncandidates=" << report.candidates_seen
     << " proposed=" << report.proposed
     << " duplicates=" << report.duplicates
     << " pruned=" << report.pruned_cells;
  // Only a search that met a deadlock says so, so the summary of every
  // other search keeps its layout.
  if (report.deadlocked_cells > 0) {
    os << " deadlocked=" << report.deadlocked_cells;
  }
  os << " full_horizon_evals=" << report.full_horizon_evals
     << " frontier=" << report.frontier.size() << "\n";
}

}  // namespace stlm::expl
