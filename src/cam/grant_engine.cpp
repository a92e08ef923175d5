#include "cam/grant_engine.hpp"

#include <algorithm>

#include "kernel/report.hpp"

namespace stlm::cam {

GrantEngine::GrantEngine(std::unique_ptr<Arbiter> arbiter,
                         std::size_t max_outstanding)
    : arbiter_(std::move(arbiter)),
      max_outstanding_(std::max<std::size_t>(max_outstanding, 1)) {
  STLM_ASSERT(arbiter_ != nullptr, "GrantEngine needs an arbiter");
}

std::size_t GrantEngine::add_master() {
  masters_.emplace_back();
  return masters_.size() - 1;
}

void GrantEngine::reset() {
  for (MasterState& m : masters_) {
    m.pending.clear();
    m.inflight = 0;
  }
  contended_picks_ = 0;
  arbiter_->reset();
}

void GrantEngine::enqueue(Txn& txn) {
  STLM_ASSERT(txn.master_id < masters_.size(),
              "GrantEngine: master index out of range");
  masters_[txn.master_id].pending.push_back(txn);
}

Txn* GrantEngine::grant(std::uint64_t cycle) {
  eligible_.assign(masters_.size(), false);
  std::size_t n_eligible = 0;
  for (std::size_t i = 0; i < masters_.size(); ++i) {
    eligible_[i] = !masters_[i].pending.empty() &&
                   masters_[i].inflight < max_outstanding_;
    n_eligible += eligible_[i] ? 1 : 0;
  }
  if (n_eligible == 0) return nullptr;
  if (n_eligible > 1) ++contended_picks_;

  const int picked = arbiter_->pick(eligible_, cycle);
  STLM_ASSERT(picked >= 0, "arbiter returned no grant with eligible masters");
  const auto g = static_cast<std::size_t>(picked);
  STLM_ASSERT(g < masters_.size() && eligible_[g],
              "arbiter granted an ineligible master");
  Txn* txn = masters_[g].pending.pop_front();
  STLM_ASSERT(txn != nullptr, "granted master has empty queue");
  ++masters_[g].inflight;
  return txn;
}

void GrantEngine::retire(const Txn& txn) {
  STLM_ASSERT(txn.master_id < masters_.size(),
              "GrantEngine: master index out of range");
  std::size_t& inflight = masters_[txn.master_id].inflight;
  STLM_ASSERT(inflight > 0,
              "GrantEngine: retiring a transaction that is not in flight");
  --inflight;
}

bool GrantEngine::any_pending() const {
  for (const auto& m : masters_) {
    if (!m.pending.empty()) return true;
  }
  return false;
}

bool GrantEngine::any_inflight() const {
  for (const auto& m : masters_) {
    if (m.inflight != 0) return true;
  }
  return false;
}

void GrantEngine::note_fast_grant(std::size_t m, std::uint64_t cycle) {
  STLM_ASSERT(m < masters_.size(), "GrantEngine: master index out of range");
  eligible_.assign(masters_.size(), false);
  eligible_[m] = true;
  arbiter_->pick(eligible_, cycle);
}

}  // namespace stlm::cam
