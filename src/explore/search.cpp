#include "explore/search.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>
#include <iomanip>
#include <map>
#include <mutex>
#include <sstream>
#include <string_view>
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

std::vector<std::size_t> pareto_front(
    const std::vector<ExplorationRow>& rows,
    const std::vector<Objective>& objectives) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < rows.size() && !dominated; ++j) {
      if (j != i && dominates(rows[j], rows[i], objectives)) dominated = true;
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

namespace {

// FNV-1a: stable per-cell hash for mutation's RNG stream — a pure
// function of the cell's identity, never of evaluation order.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
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
  std::size_t depth = 0;     // mutation hops from a seed candidate
  // Depth this cell last proposed neighbors at (kNoDepth = never). A
  // later, shorter discovery path relaxes `depth` below it and the cell
  // re-expands, so depths converge to breadth-first distances.
  std::size_t expanded_at = kNoDepth;
  ExplorationRow row;
  bool evaluated = false;
  bool done = false;       // row is final: the workload completed
  bool alive = true;       // survived every selection so far
  bool off_front = false;  // dominated at the last selection (pad keep)
};

}  // namespace

SearchDriver::SearchDriver(SearchConfig cfg) : cfg_(std::move(cfg)) {}

SearchReport SearchDriver::run(Explorer& ex,
                               const std::vector<core::Platform>& platforms,
                               const std::vector<WorkloadCase>& workloads) {
  STLM_ASSERT(!cfg_.horizons.empty(), "SearchDriver: no horizons configured");
  STLM_ASSERT(!cfg_.objectives.empty(),
              "SearchDriver: no objectives configured");
  SearchReport report;
  const std::size_t n_wl = workloads.size();

  auto cell_key = [](const std::string& platform_name, std::size_t wl) {
    return platform_name + '\n' + std::to_string(wl);
  };

  std::deque<Cell> cells;
  std::map<std::string, Cell*> seen;
  std::mutex m;  // guards cells growth, seen, and report counters
  for (const auto& p : platforms) {
    for (std::size_t w = 0; w < n_wl; ++w) {
      if (seen.count(cell_key(p.name, w))) continue;
      Cell c;
      c.platform = p;
      c.workload = w;
      cells.push_back(std::move(c));
      seen.emplace(cell_key(p.name, w), &cells.back());
    }
  }
  const std::size_t n_seed_cells = cells.size();

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

    WorkPool pool(cfg_.n_threads == 0 ? 1 : cfg_.n_threads);
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
    std::function<void(Cell*)> eval_cell;
    std::function<void(Cell*, std::size_t, bool)> expand_cell;

    // Caller holds `m`. `first` keeps re-expansions out of the proposal
    // counter: a cell contributes its picks to `proposed` exactly once.
    auto schedule_expand = [&](Cell* c) {
      const bool first = c->expanded_at == kNoDepth;
      const std::size_t at = c->depth;
      c->expanded_at = at;
      pool.submit([&expand_cell, c, at, first] { expand_cell(c, at, first); });
    };

    expand_cell = [&](Cell* c, std::size_t at_depth, bool first) {
      auto neighbors = core::grid_neighbors(c->platform, cfg_.space);
      if (neighbors.empty()) return;
      workload::SplitMix64 g(workload::SplitMix64::derive(
          cfg_.seed, fnv1a(cell_key(c->platform.name, c->workload))));
      const std::size_t picks = std::min(cfg_.mutation_limit, neighbors.size());
      for (std::size_t k = 0; k < picks; ++k) {
        const std::size_t j =
            k + static_cast<std::size_t>(g.uniform(0, neighbors.size() - 1 - k));
        std::swap(neighbors[k], neighbors[j]);
      }
      std::lock_guard<std::mutex> lock(m);
      if (first) report.proposed += picks;
      for (std::size_t k = 0; k < picks; ++k) {
        const std::string key = cell_key(neighbors[k].name, c->workload);
        const auto it = seen.find(key);
        if (it == seen.end()) {
          Cell nc;
          nc.platform = std::move(neighbors[k]);
          nc.workload = c->workload;
          nc.depth = at_depth + 1;
          cells.push_back(std::move(nc));
          Cell* const fresh = &cells.back();
          seen.emplace(key, fresh);
          pool.submit([&eval_cell, fresh] { eval_cell(fresh); });
        } else if (Cell* const hit = it->second; hit->depth > at_depth + 1) {
          hit->depth = at_depth + 1;
          if (hit->done && hit->depth < cfg_.mutation_depth &&
              hit->expanded_at > hit->depth) {
            schedule_expand(hit);
          }
        }
      }
    };

    eval_cell = [&](Cell* c) {
      // A dominated survivor runs only up to abort_at; one that has not
      // finished by then is pruned.
      const bool cut_short = c->off_front && abort_at > Time::zero() &&
                             abort_at < horizon;
      c->row = ex.evaluate(c->platform, workloads[c->workload],
                           cut_short ? abort_at : horizon);
      c->row.pruned = cut_short && !c->row.completed;
      c->evaluated = true;
      std::lock_guard<std::mutex> lock(m);
      c->done = c->row.completed;
      ++rs.evaluated;
      if (c->row.pruned) ++rs.aborted;
      if (mutate && c->done && c->depth < cfg_.mutation_depth &&
          c->expanded_at > c->depth) {
        schedule_expand(c);
      }
    };

    for (Cell* c : to_eval) {
      pool.submit([&eval_cell, c] { eval_cell(c); });
    }
    pool.run();
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
        if (c.row.pruned) {
          // Pruning is a terminal verdict: the truncated row
          // never competes with completed rows.
          c.alive = false;
          ++report.pruned_cells;
          continue;
        }
        group.push_back(&c);
      }
      std::sort(group.begin(), group.end(), [](const Cell* a, const Cell* b) {
        return a->platform.name < b->platform.name;
      });
      std::vector<ExplorationRow> rows;
      rows.reserve(group.size());
      for (const Cell* c : group) rows.push_back(c->row);
      const auto front = pareto_front(rows, cfg_.objectives);

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
        for (const Objective o : cfg_.objectives) {
          std::vector<std::size_t> order(group.size());
          for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
          std::sort(order.begin(), order.end(),
                    [&](std::size_t a, std::size_t b) {
                      const double va = objective_value(rows[a], o);
                      const double vb = objective_value(rows[b], o);
                      if (va != vb) return va < vb;
                      return group[a]->platform.name < group[b]->platform.name;
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
     << " pruned=" << report.pruned_cells
     << " full_horizon_evals=" << report.full_horizon_evals
     << " frontier=" << report.frontier.size() << "\n";
}

}  // namespace stlm::expl
