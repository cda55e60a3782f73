#include "storage/disk_manager.h"

#include <chrono>
#include <mutex>
#include <string>
#include <thread>

#include "util/random.h"

namespace atis::storage {

namespace {

/// Decrement-if-positive on a countdown word; false when the countdown is
/// exhausted (the caller's access must fail). `disarmed` never changes.
bool ConsumeCountdown(std::atomic<uint64_t>& countdown, uint64_t disarmed) {
  uint64_t left = countdown.load(std::memory_order_relaxed);
  while (left != disarmed) {
    if (left == 0) return false;
    if (countdown.compare_exchange_weak(left, left - 1,
                                        std::memory_order_relaxed)) {
      return true;
    }
    // CAS failure reloaded `left`; retry with the fresh value.
  }
  return true;
}

/// Slot-table entries before the first doubling.
constexpr size_t kInitialSlots = 64;

}  // namespace

DiskManager::DiskManager() {
  tables_.push_back(std::make_unique<SlotTable>(kInitialSlots));
  table_.store(tables_.back().get(), std::memory_order_release);
}

PageId DiskManager::AllocatePage() {
  std::unique_lock lock(mu_);
  if (!free_list_.empty()) {
    const PageId id = free_list_.back();
    free_list_.pop_back();
    Slot& slot = *slots_[id];
    slot.page.Zero();
    slot.live.store(true, std::memory_order_release);
    return id;
  }
  const auto id = static_cast<PageId>(slots_.size());
  const SlotTable* table = tables_.back().get();
  if (id == table->capacity) {
    // Full: publish a copy twice the size. Readers still on the old table
    // find every id it covers, so it is kept, not freed.
    auto grown = std::make_unique<SlotTable>(2 * table->capacity);
    for (size_t i = 0; i < table->capacity; ++i) {
      grown->slots[i].store(slots_[i].get(), std::memory_order_relaxed);
    }
    tables_.push_back(std::move(grown));
    table = tables_.back().get();
    table_.store(table, std::memory_order_release);
  }
  slots_.push_back(std::make_unique<Slot>());
  table->slots[id].store(slots_.back().get(), std::memory_order_release);
  return id;
}

Status DiskManager::DeallocatePage(PageId id) {
  std::unique_lock lock(mu_);
  Slot* slot = LiveSlot(id);
  if (slot == nullptr) return NotAllocated(id);
  // The slot keeps its memory: a read racing this call copies owned bytes.
  slot->live.store(false, std::memory_order_release);
  free_list_.push_back(id);
  return Status::OK();
}

Status DiskManager::ReadPage(PageId id, Page* dest) {
  Slot* slot = LiveSlot(id);
  if (slot == nullptr) return NotAllocated(id);
  uint32_t spike_micros = 0;
  ATIS_RETURN_NOT_OK(CheckFault(&spike_micros));
  *dest = slot->page;
  meter_.RecordRead();
  SimulateLatency(/*is_write=*/false, spike_micros);
  return Status::OK();
}

Status DiskManager::WritePage(PageId id, const Page& src) {
  Slot* slot = LiveSlot(id);
  if (slot == nullptr) return NotAllocated(id);
  uint32_t spike_micros = 0;
  ATIS_RETURN_NOT_OK(CheckFault(&spike_micros));
  slot->page = src;
  meter_.RecordWrite();
  SimulateLatency(/*is_write=*/true, spike_micros);
  return Status::OK();
}

size_t DiskManager::num_allocated() const {
  std::shared_lock lock(mu_);
  return slots_.size() - free_list_.size();
}

void DiskManager::SetFaultProfile(FaultProfile profile) {
  std::unique_lock lock(mu_);
  profile_ = profile;
  permanent_tripped_.store(false, std::memory_order_relaxed);
  fault_draws_.store(0, std::memory_order_relaxed);
  profile_enabled_.store(profile.enabled(), std::memory_order_relaxed);
}

FaultProfile DiskManager::fault_profile() const {
  std::shared_lock lock(mu_);
  return profile_;
}

Status DiskManager::CheckDurableWrite(uint32_t* spike_micros) {
  uint32_t spike = 0;
  Status st = CheckDurableFault(DurableOp::kWrite, &spike);
  if (spike_micros != nullptr) *spike_micros = spike;
  return st;
}

Status DiskManager::CheckDurableSync() {
  uint32_t spike = 0;
  return CheckDurableFault(DurableOp::kSync, &spike);
}

Status DiskManager::CheckDurableTruncate() {
  uint32_t spike = 0;
  return CheckDurableFault(DurableOp::kTruncate, &spike);
}

Status DiskManager::CheckDurableFault(DurableOp op, uint32_t* spike_micros) {
  // The deterministic countdowns and the permanent trip model the whole
  // device, so they gate durable I/O exactly as they gate page I/O.
  if (!ConsumeCountdown(fault_countdown_, kFaultDisarmed)) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal("injected disk fault");
  }
  uint64_t left = transient_countdown_.load(std::memory_order_relaxed);
  while (left > 0) {
    if (transient_countdown_.compare_exchange_weak(
            left, left - 1, std::memory_order_relaxed)) {
      faults_injected_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable("injected transient disk fault");
    }
  }
  if (!profile_enabled_.load(std::memory_order_relaxed)) return Status::OK();
  std::shared_lock lock(mu_);  // profile_ is written under mu_
  if (permanent_tripped_.load(std::memory_order_relaxed)) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal("disk failed permanently (injected)");
  }
  double rate = 0.0;
  const char* what = nullptr;
  switch (op) {
    case DurableOp::kWrite:
      rate = profile_.write_transient_rate;
      what = "injected durable-write fault";
      break;
    case DurableOp::kSync:
      rate = profile_.sync_transient_rate;
      what = "injected fsync fault";
      break;
    case DurableOp::kTruncate:
      rate = profile_.truncate_transient_rate;
      what = "injected truncate fault";
      break;
  }
  if (rate <= 0.0 && profile_.spike_micros == 0) return Status::OK();
  const uint64_t n = fault_draws_.fetch_add(1, std::memory_order_relaxed);
  SplitMix64 sm(profile_.seed ^ (n * 0x9e3779b97f4a7c15ULL));
  const auto uniform = [&] {
    return static_cast<double>(sm.Next() >> 11) * 0x1.0p-53;
  };
  if (uniform() < rate) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable(what);
  }
  if (op == DurableOp::kWrite && profile_.spike_micros > 0 &&
      uniform() < profile_.spike_rate) {
    *spike_micros = profile_.spike_micros;
  }
  return Status::OK();
}

Status DiskManager::CheckFault(uint32_t* spike_micros) {
  // Deterministic countdowns first: they are armed explicitly by tests.
  if (!ConsumeCountdown(fault_countdown_, kFaultDisarmed)) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal("injected disk fault");
  }
  // Transient window: while the countdown is positive each access consumes
  // one unit and fails kUnavailable; at zero the device has recovered.
  uint64_t left = transient_countdown_.load(std::memory_order_relaxed);
  while (left > 0) {
    if (transient_countdown_.compare_exchange_weak(
            left, left - 1, std::memory_order_relaxed)) {
      faults_injected_.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable("injected transient disk fault");
    }
  }
  if (!profile_enabled_.load(std::memory_order_relaxed)) return Status::OK();
  std::shared_lock lock(mu_);  // profile_ is written under mu_
  if (permanent_tripped_.load(std::memory_order_relaxed)) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal("disk failed permanently (injected)");
  }
  // Two independent uniform draws per access from a counter-hashed
  // SplitMix64 stream: deterministic for a given (seed, access ordinal),
  // lock-free under concurrency (the ordinal is a relaxed fetch_add).
  const uint64_t n = fault_draws_.fetch_add(1, std::memory_order_relaxed);
  SplitMix64 sm(profile_.seed ^ (n * 0x9e3779b97f4a7c15ULL));
  const auto uniform = [&] {
    return static_cast<double>(sm.Next() >> 11) * 0x1.0p-53;
  };
  const double u = uniform();
  if (u < profile_.permanent_rate) {
    permanent_tripped_.store(true, std::memory_order_relaxed);
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal("disk failed permanently (injected)");
  }
  if (u < profile_.permanent_rate + profile_.transient_rate) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("injected transient disk fault");
  }
  if (profile_.spike_micros > 0 && uniform() < profile_.spike_rate) {
    *spike_micros = profile_.spike_micros;
  }
  return Status::OK();
}

void DiskManager::SimulateLatency(bool is_write,
                                  uint32_t spike_micros) const {
  const uint32_t micros =
      spike_micros +
      (is_write ? latency_write_micros_.load(std::memory_order_relaxed)
                : latency_read_micros_.load(std::memory_order_relaxed));
  if (micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
}

Status DiskManager::NotAllocated(PageId id) {
  return Status::NotFound("page " + std::to_string(id) + " is not allocated");
}

}  // namespace atis::storage
