#include "src/itermine/generators.h"

#include <unordered_map>

#include "src/itermine/projection.h"
#include "src/itermine/qre_verifier.h"

namespace specmine {

namespace {

// True iff no one-event deletion D of `pattern` has `support` instances;
// `deletion_at_support(D)` answers that for one deletion.
template <typename DeletionAtSupport>
bool IsGeneratorImpl(const Pattern& pattern,
                     const DeletionAtSupport& deletion_at_support) {
  for (size_t k = 0; k < pattern.size(); ++k) {
    Pattern deleted = pattern.Erase(k);
    if (deleted.empty()) continue;  // Length-1 patterns are generators.
    if (deletion_at_support(deleted)) return false;
  }
  return true;
}

}  // namespace

bool IsIterativeGenerator(const CountingBackend& backend,
                          const Pattern& pattern, uint64_t support) {
  return IsGeneratorImpl(pattern, [&](const Pattern& deleted) {
    return CountInstances(backend, deleted) == support;
  });
}

PatternSet MineIterativeGenerators(const CountingBackend& backend,
                                   const IterGeneratorMinerOptions& options,
                                   IterMinerStats* stats, ThreadPool* pool) {
  IterMinerStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  IterMinerOptions scan;
  scan.min_support = options.min_support;
  scan.max_length = options.max_length;
  scan.num_threads = options.num_threads;
  scan.cancel = options.cancel;
  // Every frequent pattern's support, keyed by pattern, plus the scan's
  // emission order (pointers into the table's stable nodes). The sink runs
  // on the calling thread even under the parallel scan. Unlike the
  // sequential case, support equality with a deletion does not propagate
  // structurally to extensions under QRE semantics, so subtrees are
  // always grown.
  using SupportTable = std::unordered_map<Pattern, uint64_t, PatternHash>;
  SupportTable supports;
  std::vector<const SupportTable::value_type*> order;
  ScanFrequentIterative(
      backend, scan,
      [&](const Pattern& p, uint64_t support) {
        order.push_back(&*supports.emplace(p, support).first);
        return true;
      },
      stats, pool);

  // A complete scan holds every frequent pattern up to max_length, and a
  // deletion is one event shorter, so a deletion missing from the table
  // has support below min_support <= sup(P). A scan cut short by the
  // cancel token may lack frequent deletions: those misses are recounted,
  // so the output stays a prefix of the complete run's.
  const bool complete =
      stats->stopped == StatusCode::kOk && stats->error.ok();
  QreRecountScratch scratch;
  PatternSet out;
  for (const SupportTable::value_type* item : order) {
    const auto& [pattern, support] = *item;
    const bool generator =
        IsGeneratorImpl(pattern, [&](const Pattern& deleted) {
          const auto it = supports.find(deleted);
          if (it != supports.end()) return it->second == support;
          return !complete &&
                 CountInstances(backend, deleted, &scratch) == support;
        });
    if (generator) out.Add(pattern, support);
  }
  return out;
}

}  // namespace specmine
