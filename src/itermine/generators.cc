#include "src/itermine/generators.h"

#include "src/itermine/projection.h"
#include "src/itermine/qre_verifier.h"

namespace specmine {

namespace {

bool IsGeneratorImpl(const CountingBackend& backend, const Pattern& pattern,
                     uint64_t support, QreRecountScratch* scratch) {
  for (size_t k = 0; k < pattern.size(); ++k) {
    Pattern deleted = pattern.Erase(k);
    if (deleted.empty()) continue;  // Length-1 patterns are generators.
    if (CountInstances(backend, deleted, scratch) == support) return false;
  }
  return true;
}

}  // namespace

bool IsIterativeGenerator(const CountingBackend& backend,
                          const Pattern& pattern, uint64_t support) {
  return IsGeneratorImpl(backend, pattern, support, nullptr);
}

PatternSet MineIterativeGenerators(const CountingBackend& backend,
                                   const IterGeneratorMinerOptions& options,
                                   IterMinerStats* stats, ThreadPool* pool) {
  PatternSet out;
  IterMinerOptions scan;
  scan.min_support = options.min_support;
  scan.max_length = options.max_length;
  scan.num_threads = options.num_threads;
  scan.cancel = options.cancel;
  // The sink runs on the calling thread even under the parallel scan, so
  // one recount scratch serves the whole run.
  QreRecountScratch scratch;
  ScanFrequentIterative(
      backend, scan,
      [&](const Pattern& p, uint64_t support) {
        if (IsGeneratorImpl(backend, p, support, &scratch)) {
          out.Add(p, support);
        }
        // Unlike the sequential case, support equality with a deletion
        // does not propagate structurally to extensions under QRE
        // semantics, so subtrees are always grown.
        return true;
      },
      stats, pool);
  return out;
}

}  // namespace specmine
