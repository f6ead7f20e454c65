// The projection engine for iterative pattern growth: given the instances
// of a pattern P, compute the instances of every one-event extension, the
// supports of every one-event backward extension, and the closure
// information used by the closed miner.
//
// Correctness notes (referenced from DESIGN.md):
//
//  * Forward growth. An instance of Q = P++<e> spans [start, q] where
//    [start, end] is an instance of P, q is the first occurrence of e after
//    `end` with no alphabet(P) event in between, and additionally e does not
//    occur inside any gap of the P-instance when e is not in alphabet(P)
//    (the exclusion alphabet of Q contains e, so the old gaps must be free
//    of it). Scanning forward from end+1 and stopping at the first
//    alphabet(P) event enumerates every candidate e in one pass; gap
//    freedom is a position-index range count.
//
//  * Backward growth mirrors this on [0, start-1].
//
//  * Every instance of Q restricts to the P-instance with the same start
//    (forward) or to the canonical P-instance beginning at its second
//    pattern event (backward); both maps are injective, so
//    sup(Q) == sup(P) implies a total one-to-one correspondence — the
//    absorption condition of Definition 4.2.
//
//  * Threshold contract and count bound. The miners read only extensions
//    that reach a threshold (min_support to grow, the pattern's own
//    support to absorb), so the backend-dispatching queries take a
//    `min_count` and return only events whose extension reaches it.
//    Distinct instances of P++<e> end at distinct occurrences of e: two
//    instances with the same end would share the deterministic chain back
//    to their start (Definition 4.1), so they would be one instance.
//    Likewise distinct instances of <e>++P start at distinct occurrences
//    of e. Hence sup(P++<e>) and sup(<e>++P) are at most TotalCount(e),
//    and the window walks skip every event with TotalCount(e) < min_count
//    before the seen and gap tests: no candidate, seen bit or bucket is
//    ever spent on an event that cannot qualify. Events that pass the
//    bound but end below min_count are dropped at the drain.
//
//  * Backward early exit (the vertical arm). An event first met when
//    fewer than min_count instances remain cannot reach min_count, so
//    once that point is passed the query stops walking windows: each
//    later instance only probes the events tallied so far that can still
//    reach it, and the query returns as soon as none can. A probe gives
//    the walk's exact outcome for its event (the instance's alphabet stop
//    event, or present in the window and absent from the gaps; adjacent
//    iff it sits right before the start), and an event dropped as unable
//    to reach min_count would have been dropped at the drain, so every
//    returned support and adjacency flag is the full walk's. At the
//    closed miner's threshold (the pattern's own support) this is
//    intersect-and-stop: walk the first instance, then probe.
//
// Hot-path design (README.md, "Index layout & threading"): every query
// runs over dense epoch-stamped mark sets and per-event buckets held in a
// reusable ProjectionWorkspace — no hashing, no std::map nodes, and in
// steady state no heap allocation. The workspace-free overloads exist for
// tests and one-off callers and return every touched event (min_count 1);
// the miners thread one workspace per worker.

#ifndef SPECMINE_ITERMINE_PROJECTION_H_
#define SPECMINE_ITERMINE_PROJECTION_H_

#include <cstdint>
#include <vector>

#include "src/itermine/counting_backend.h"
#include "src/itermine/instance.h"
#include "src/patterns/pattern.h"
#include "src/support/event_marks.h"
#include "src/support/extension_accumulator.h"
#include "src/support/flat_event_map.h"

namespace specmine {

/// \brief Instances of every one-event forward extension, sorted by event.
using ForwardExtensionMap = EventMap<InstanceList>;

/// \brief Summary of a one-event backward extension <e>++P.
struct BackwardExtension {
  /// Number of instances of <e>++P.
  uint64_t support = 0;
  /// True iff in every extension the new event sits immediately before the
  /// original instance start (no gap). Drives the P1/P2 subtree prunes.
  bool all_adjacent = true;
};

/// \brief Supports of every one-event backward extension, sorted by event.
using BackwardExtensionMap = EventMap<BackwardExtension>;

/// \brief Scratch for the vertical projection arm: one alphabet
/// union row over the event arena, a flat candidate buffer, and the
/// per-event counting slots the scatter drain sizes buckets from. The
/// buffers grow once and are reused; every reset is an O(1) epoch bump.
struct VerticalScratch {
  /// OR of the pattern events' rows, valid for the word range of the
  /// sequence most recently prepared (the queries mask to that range).
  std::vector<uint64_t> union_words;
  /// Distinct pattern events (the rows joined into union_words).
  std::vector<EventId> alphabet;

  /// Forward-extension candidates in discovery order — the flat buffer
  /// the drain scatters into exact-sized per-event buckets (discovery
  /// order within an event IS the CSR bucket order, so no K-element sort
  /// is ever needed).
  struct ForwardCandidate {
    EventId ev;
    IterInstance inst;
  };
  std::vector<ForwardCandidate> forward;

  /// Per-event candidate counts during the scan, then the event's entry
  /// index in the output map during the scatter.
  EpochSlots<uint32_t> slots;

  /// Events occurring strictly inside the current instance's gap, marked
  /// once per instance by one sequential arena walk — the gap-freedom
  /// test is then an O(1) membership lookup per candidate instead of a
  /// per-candidate row probe.
  EventMarkSet gap_events;

  /// Backward events that can still reach min_count once fewer than
  /// min_count instances remain (the probe phase of the backward query).
  std::vector<EventId> alive;
};

/// \brief Reusable scratch for the word-wise QRE recount (the alphabet
/// union row). Optional: callers in loops (shard recounts, a cancelled
/// generator run's deletion recounts) keep one alive to stay
/// allocation-free.
struct QreRecountScratch {
  std::vector<uint64_t> union_words;
  std::vector<EventId> alphabet;
};

/// \brief Reusable scratch space for the projection queries: dense mark
/// sets, extension buckets and result buffers. One per mining thread;
/// never shared concurrently.
struct ProjectionWorkspace {
  EventMarkSet alphabet;
  EventMarkSet seen;
  ExtensionAccumulator<IterInstance> forward;  // Buckets and map shells.

  // Scratch for the vertical backends' word-wise queries (unused by CSR).
  VerticalScratch vertical;

  // Backward extensions: dense per-event slots, epoch-stamped, plus the
  // reused result buffer (consumed before the next call by construction).
  EpochSlots<BackwardExtension> back;
  BackwardExtensionMap back_result;

  // Infix-absorber profiles: per-event per-gap occurrence counts.
  ExtensionAccumulator<uint32_t> profiles;
  ExtensionAccumulator<uint32_t>::Map common;
};

/// \brief Instances of the single-event pattern <ev>: every occurrence.
InstanceList SingleEventInstances(const PositionIndex& index, EventId ev);

/// \brief Instances of every one-event forward extension P++<e> with at
/// least \p min_count instances, written into \p out (cleared first).
/// Events with fewer (or no valid extension) are absent; iteration order
/// is ascending event id, so it is deterministic.
void ForwardExtensions(const PositionIndex& index, const Pattern& pattern,
                       const InstanceList& instances, uint64_t min_count,
                       ProjectionWorkspace* ws, ForwardExtensionMap* out);

/// \brief Supports (and adjacency) of every one-event backward extension
/// with support at least \p min_count. The returned reference lives in
/// \p ws and is valid until the next BackwardExtensions call on the same
/// workspace. (This CSR arm walks every instance; the vertical arm stops
/// early, with the same result — see "Backward early exit" above.)
const BackwardExtensionMap& BackwardExtensions(const PositionIndex& index,
                                               const Pattern& pattern,
                                               const InstanceList& instances,
                                               uint64_t min_count,
                                               ProjectionWorkspace* ws);

/// \brief True iff some event e outside alphabet(pattern) occurs with an
/// identical, somewhere-non-zero per-gap count profile in every instance —
/// in which case inserting e with those multiplicities yields a
/// super-sequence with equal support and total instance correspondence
/// (pattern is not closed). Requires pattern.size() >= 2.
bool HasUniformInfixAbsorber(const SequenceDatabase& db,
                             const Pattern& pattern,
                             const InstanceList& instances,
                             ProjectionWorkspace* ws);

/// \brief Workspace-free conveniences for tests and one-off callers: every
/// event with at least one valid extension (min_count 1).
ForwardExtensionMap ForwardExtensions(const PositionIndex& index,
                                      const Pattern& pattern,
                                      const InstanceList& instances);
BackwardExtensionMap BackwardExtensions(const PositionIndex& index,
                                        const Pattern& pattern,
                                        const InstanceList& instances);
bool HasUniformInfixAbsorber(const SequenceDatabase& db,
                             const Pattern& pattern,
                             const InstanceList& instances);

// ---------------------------------------------------------------------------
// Backend-dispatching overloads: the seam the miners run through. Each
// branches once on backend.kind() — kCsr lands in the functions above
// unchanged, kHybrid (the "bitmap" and "hybrid" backends alike) in the
// word-wise arm (vertical_projection_impl.h). Outputs are observationally
// identical across backends (entries, supports, order), property-tested in
// tests/backend_equivalence_test.cc.

/// \brief Instances of the single-event pattern <ev> on either backend.
InstanceList SingleEventInstances(const CountingBackend& backend, EventId ev);

/// \brief ForwardExtensions on either backend: only events whose
/// extension has at least \p min_count instances.
void ForwardExtensions(const CountingBackend& backend, const Pattern& pattern,
                       const InstanceList& instances, uint64_t min_count,
                       ProjectionWorkspace* ws, ForwardExtensionMap* out);

/// \brief BackwardExtensions on either backend: only events whose
/// extension has support at least \p min_count. The returned reference
/// lives in \p ws either way.
const BackwardExtensionMap& BackwardExtensions(const CountingBackend& backend,
                                               const Pattern& pattern,
                                               const InstanceList& instances,
                                               uint64_t min_count,
                                               ProjectionWorkspace* ws);

}  // namespace specmine

#endif  // SPECMINE_ITERMINE_PROJECTION_H_
