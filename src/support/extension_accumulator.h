// ExtensionAccumulator: dense per-event buckets with a touched-id list —
// the allocation-free replacement for the `std::map<EventId, vector>`
// grouping in the projection engines.
//
// Usage per pattern node:
//   acc.Reset(num_events);
//   ... acc.Bucket(ev).push_back(item) ...   // O(1), no hashing
//   Map out = acc.AcquireMap();              // pooled shell
//   acc.Drain(&out);                         // sorted by event id
//   ... consume out (may outlive further Reset/Bucket cycles) ...
//   acc.ReleaseMap(std::move(out));          // return buckets and shell
//
// Buckets are stamped with an epoch so Reset is O(1); drained vectors go
// back into a free pool when recycled, so steady-state mining performs no
// heap allocation at all. The touched list is sorted before draining,
// keeping iteration order byte-identical to the std::map implementation it
// replaces.
//
// Users: the iterative miners' ProjectionWorkspace (one per thread) and
// the sequential miners' SequentialWorkspace, shared by PrefixSpan
// (ScanFrequentSequential) and the BIDE-style closed miner
// (MineClosedSequential). Those fill it through CollectFrequentExtensions,
// which buckets only events that reach min_support, and a rule run keeps
// one workspace for every premise (one per worker when parallel).

#ifndef SPECMINE_SUPPORT_EXTENSION_ACCUMULATOR_H_
#define SPECMINE_SUPPORT_EXTENSION_ACCUMULATOR_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/support/flat_event_map.h"
#include "src/trace/event_dictionary.h"

namespace specmine {

/// \brief Groups items by event id without hashing or node allocation.
template <typename T>
class ExtensionAccumulator {
 public:
  using Bucket_t = std::vector<T>;
  using Map = EventMap<Bucket_t>;

  /// \brief Starts a new accumulation epoch over \p num_events ids.
  void Reset(size_t num_events) {
    if (stamp_.size() < num_events) {
      stamp_.resize(num_events, 0);
      buckets_.resize(num_events);
    }
    touched_.clear();
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  /// \brief The bucket for \p ev, cleared on first touch of the epoch.
  Bucket_t& Bucket(EventId ev) {
    Bucket_t& b = buckets_[ev];
    if (stamp_[ev] != epoch_) {
      stamp_[ev] = epoch_;
      touched_.push_back(ev);
      if (b.capacity() == 0 && !pool_.empty()) {
        b = std::move(pool_.back());  // Reuse a recycled vector's capacity.
        pool_.pop_back();
      }
      b.clear();
    }
    return b;
  }

  /// \brief Bucket touched this epoch, or nullptr.
  const Bucket_t* FindTouched(EventId ev) const {
    return ev < stamp_.size() && stamp_[ev] == epoch_ ? &buckets_[ev]
                                                      : nullptr;
  }

  /// \brief Event ids touched this epoch, in touch order (unsorted).
  const std::vector<EventId>& touched() const { return touched_; }

  /// \brief Moves the touched buckets holding at least \p min_size items
  /// into \p out, sorted by event id. Smaller (and empty) buckets stay
  /// behind, keeping their capacity for the next epoch. \p out is cleared
  /// first.
  void Drain(Map* out, size_t min_size = 1) {
    std::sort(touched_.begin(), touched_.end());
    out->clear();
    for (EventId ev : touched_) {
      if (buckets_[ev].size() < min_size || buckets_[ev].empty()) continue;
      out->emplace_back(ev, std::move(buckets_[ev]));
    }
    touched_.clear();
  }

  /// \brief Takes one empty bucket, reusing pooled capacity — for callers
  /// that group without the dense stamp table (the vertical projection's
  /// count-and-scatter drain) but share this accumulator's recycle pool.
  Bucket_t AcquireBucket() {
    if (pool_.empty()) return Bucket_t();
    Bucket_t b = std::move(pool_.back());
    pool_.pop_back();
    b.clear();
    return b;
  }

  /// \brief Returns a consumed bucket's capacity to the free pool.
  void Recycle(Bucket_t&& b) {
    b.clear();
    if (b.capacity() != 0) pool_.push_back(std::move(b));
  }

  /// \brief Recycles every bucket of a drained map.
  void Recycle(Map&& m) {
    for (auto& [ev, bucket] : m) Recycle(std::move(bucket));
    m.clear();
  }

  /// \brief Takes an empty map shell, reusing pooled capacity — one per
  /// live DFS level, handed to Drain.
  Map AcquireMap() {
    if (map_pool_.empty()) return Map();
    Map m = std::move(map_pool_.back());
    map_pool_.pop_back();
    return m;
  }

  /// \brief Recycles a consumed map: its buckets and its shell.
  void ReleaseMap(Map&& m) {
    Recycle(std::move(m));
    map_pool_.push_back(std::move(m));
  }

 private:
  std::vector<Bucket_t> buckets_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 1;
  std::vector<EventId> touched_;
  std::vector<Bucket_t> pool_;
  std::vector<Map> map_pool_;
};

}  // namespace specmine

#endif  // SPECMINE_SUPPORT_EXTENSION_ACCUMULATOR_H_
