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
//    freedom is a membership test against the events inside the gaps.
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
//    support to absorb), so the queries take a `min_count` and return only
//    events whose extension reaches it.
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
//  * Early exit (both directions). An event first met when fewer than
//    min_count instances remain cannot reach min_count, so once that
//    point is passed (after the first n + 1 - min_count of n instances)
//    a query stops walking windows: each later instance only probes the
//    events met so far that can still reach it, and the query returns as
//    soon as none can. (Forward, an instance whose window holds fewer
//    events than are alive walks the window instead: the walk is exact
//    for the alive events, and anything else it counts stays below
//    min_count.) A probe gives the walk's exact outcome for its
//    event: the instance's alphabet stop event, or else the first
//    occurrence in the window provided the event is absent from the gaps
//    (backward: the last occurrence, adjacent iff it sits right before
//    the start). An event dropped as unable to reach min_count would have
//    been dropped at the drain, so every returned extension, instance
//    list, support and adjacency flag is the full walk's. At the closed
//    miner's threshold (the pattern's own support) this is
//    intersect-and-stop: walk the first instance, then probe. Forward
//    candidates stay in instance order per event, so the scatter below is
//    unchanged.
//
//  * Survivors-only drain. Both drains first compact the touched events
//    to those at or above min_count and sort only those; on dense corpora
//    a call touches dozens of events and keeps about one.
//
// Hot-path design (README.md, "Index layout & threading"): every query
// runs word-wise over HybridIndex rows and ID lists, with dense
// epoch-stamped mark sets and per-event slots held in a reusable
// ProjectionWorkspace — no hashing, no std::map nodes, and in steady state
// no heap allocation. The miners thread one workspace per worker.
//
// Index queries use the global-bit conventions of bitmap_index.h (bit g =
// arena position g, ranges half-open, kNoBit = none). Union rows are
// always word-packed — rare events are scattered into the union as bits —
// so the union-row scans call the bitrow word primitives directly.

#ifndef SPECMINE_ITERMINE_PROJECTION_H_
#define SPECMINE_ITERMINE_PROJECTION_H_

#include <cstdint>
#include <vector>

#include "src/itermine/hybrid_index.h"
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

/// \brief Scratch for the word-wise projection queries: one alphabet
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
  /// order within an event is instance order, so no K-element sort is
  /// ever needed).
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

  /// Events that can still reach min_count once fewer than min_count
  /// instances remain: the probe phase of both the forward and the
  /// backward query ("Early exit" above).
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
  EventMarkSet alphabet;  // The infix check's pattern alphabet.
  EventMarkSet seen;
  // Pooled bucket capacity and map shells for the forward results.
  ExtensionAccumulator<IterInstance> forward;

  // The word-wise queries' union row, candidates and slots.
  VerticalScratch vertical;

  // Backward extensions: dense per-event slots, epoch-stamped, plus the
  // reused result buffer (consumed before the next call by construction).
  EpochSlots<BackwardExtension> back;
  BackwardExtensionMap back_result;

  // Infix-absorber profiles: per-event per-gap occurrence counts.
  ExtensionAccumulator<uint32_t> profiles;
  ExtensionAccumulator<uint32_t>::Map common;
};

/// \brief Instances of the single-event pattern <ev>: every occurrence,
/// in (sequence, position) order.
InstanceList SingleEventInstances(const HybridIndex& index, EventId ev);

/// \brief Instances of every one-event forward extension P++<e> with at
/// least \p min_count instances, written into \p out (cleared first).
/// Events with fewer (or no valid extension) are absent; iteration order
/// is ascending event id, so it is deterministic. The walk stops early
/// where it can; see "Early exit" above.
void ForwardExtensions(const HybridIndex& index, const Pattern& pattern,
                       const InstanceList& instances, uint64_t min_count,
                       ProjectionWorkspace* ws, ForwardExtensionMap* out);

/// \brief Supports (and adjacency) of every one-event backward extension
/// with support at least \p min_count. The returned reference lives in
/// \p ws and is valid until the next BackwardExtensions call on the same
/// workspace. The walk stops early where it can; see "Early exit" above.
const BackwardExtensionMap& BackwardExtensions(const HybridIndex& index,
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

/// \brief Workspace-free HasUniformInfixAbsorber for tests and one-off
/// callers.
bool HasUniformInfixAbsorber(const SequenceDatabase& db,
                             const Pattern& pattern,
                             const InstanceList& instances);

/// \brief Indexed instance recount: identical to the scalar oracle
/// CountInstances(pattern, index.db()) (qre_verifier.h), computed by
/// chain-walking first-set bits of the alphabet union row. \p scratch,
/// when non-null, keeps recount loops allocation-free.
uint64_t CountInstances(const HybridIndex& index, const Pattern& pattern,
                        QreRecountScratch* scratch = nullptr);

}  // namespace specmine

#endif  // SPECMINE_ITERMINE_PROJECTION_H_
