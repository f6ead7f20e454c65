// SequenceDatabase: the SeqDB of the paper — a set of program traces plus
// the event dictionary naming their events.
//
// Storage is columnar and arena-backed (see README.md, "Storage layout &
// binary format"): all events of all traces live in one flat arena,
// delimited by a CSR offsets table (offsets[s]..offsets[s+1] is trace s).
// Traces are exposed only as zero-copy EventSpan views. A database is
// immutable once built; the mutable construction path is
// SequenceDatabaseBuilder below, which appends into the same columnar form
// and finalizes without copying. The arena/offsets may also be *views* into
// memory owned elsewhere (an mmap of a .smdb file — see binary_format.h),
// in which case the in-memory layout is byte-identical to the on-disk one.

#ifndef SPECMINE_TRACE_SEQUENCE_DATABASE_H_
#define SPECMINE_TRACE_SEQUENCE_DATABASE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/status.h"
#include "src/trace/event_dictionary.h"
#include "src/trace/sequence.h"

namespace specmine {

/// \brief Index of a sequence within a database.
using SeqId = uint32_t;

/// \brief Position within a sequence (0-based). The counting index and the
/// instance lists address the arena with uint32 positions; see
/// CheckIndexable.
using Pos = uint32_t;

/// \brief Sentinel for "no position".
inline constexpr Pos kNoPos = ~Pos{0};

/// \brief A database of event sequences (program traces).
///
/// Owns (or views) the event arena and the EventDictionary naming events.
/// This is the input type of every miner in the library. Immutable; build
/// one with SequenceDatabaseBuilder, the trace readers, or MappedDatabase.
///
/// Copying a database that owns its arena deep-copies it; copying a *view*
/// database (one wrapping an mmap) copies only the pointers, so the copy
/// shares — and must not outlive — the mapped storage.
class SequenceDatabase {
 public:
  SequenceDatabase();
  SequenceDatabase(const SequenceDatabase& other);
  SequenceDatabase(SequenceDatabase&& other) noexcept;
  SequenceDatabase& operator=(const SequenceDatabase& other);
  SequenceDatabase& operator=(SequenceDatabase&& other) noexcept;

  /// \brief Wraps storage owned elsewhere (an mmap'ed .smdb section pair).
  /// \p offsets must have \p num_sequences + 1 entries with offsets[0] == 0
  /// and offsets[num_sequences] == the arena length; both arrays must
  /// outlive the database and every copy of it.
  static SequenceDatabase WrapView(EventDictionary dictionary,
                                   const EventId* arena,
                                   const uint64_t* offsets,
                                   size_t num_sequences);

  /// \brief Number of sequences.
  size_t size() const { return num_seqs_; }
  /// \brief True iff the database holds no sequences.
  bool empty() const { return num_seqs_ == 0; }

  /// \brief Sequence by id (unchecked; \p id must be < size()).
  EventSpan operator[](SeqId id) const {
    return EventSpan(arena_ + offsets_[id], arena_ + offsets_[id + 1]);
  }

  /// \brief Bounds-checked sequence access: OutOfRange for an invalid id.
  Result<EventSpan> at(SeqId id) const;

  /// \brief Total number of events over all sequences. O(1).
  size_t TotalEvents() const { return offsets_[num_seqs_]; }

  /// \brief The dictionary naming this database's events.
  const EventDictionary& dictionary() const { return dictionary_; }

  /// \brief The flat event arena (TotalEvents() entries), grouped by
  /// sequence. Exposed for the index builder and the binary writer.
  const EventId* arena() const { return arena_; }
  /// \brief The CSR offsets table (size() + 1 entries, offsets()[0] == 0).
  const uint64_t* offsets() const { return offsets_; }
  /// \brief True iff the arena is owned by this object (false for views
  /// into an mmap).
  bool owns_storage() const { return !owned_offsets_.empty(); }

  /// \brief Iteration yields one EventSpan per sequence, in id order.
  class const_iterator {
   public:
    const_iterator(const SequenceDatabase* db, SeqId id) : db_(db), id_(id) {}
    EventSpan operator*() const { return (*db_)[id_]; }
    const_iterator& operator++() {
      ++id_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return id_ == o.id_; }
    bool operator!=(const const_iterator& o) const { return id_ != o.id_; }

   private:
    const SequenceDatabase* db_;
    SeqId id_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const {
    return const_iterator(this, static_cast<SeqId>(num_seqs_));
  }

 private:
  friend class SequenceDatabaseBuilder;

  // Re-points arena_/offsets_ at the owned vectors when this database owns
  // its storage (after construction, copy, or move). View databases keep
  // their external pointers.
  void Repoint();

  EventDictionary dictionary_;
  // Owned storage. A view database leaves both vectors empty; an owned
  // database always has owned_offsets_ = {0, ...}, so owns_storage() can
  // key off offsets alone.
  std::vector<EventId> owned_arena_;
  std::vector<uint64_t> owned_offsets_;
  const EventId* arena_ = nullptr;
  const uint64_t* offsets_ = nullptr;
  size_t num_seqs_ = 0;
};

/// \brief The mutable construction path: append traces, then Build() the
/// immutable columnar database. Appends go straight into the flat arena —
/// no per-trace allocations.
class SequenceDatabaseBuilder {
 public:
  SequenceDatabaseBuilder() { offsets_.push_back(0); }

  /// \brief Pre-sizes the arena (optional; appends reallocate as needed).
  void Reserve(size_t num_sequences, size_t total_events) {
    offsets_.reserve(num_sequences + 1);
    arena_.reserve(total_events);
  }

  /// \brief Adds a trace given by event names, interning new names.
  /// Returns the id of the added sequence.
  SeqId AddTrace(const std::vector<std::string>& event_names);

  /// \brief Adds a trace of already-interned event ids.
  SeqId AddSequence(EventSpan events);

  /// \brief Adds a trace of already-interned event ids.
  SeqId AddSequence(std::initializer_list<EventId> events) {
    return AddSequence(EventSpan(events.begin(), events.end()));
  }

  /// \brief Convenience: parses a string of space-separated event names
  /// ("a b a c") and adds it as a trace.
  SeqId AddTraceFromString(std::string_view line);

  /// \brief Number of traces added so far.
  size_t size() const { return offsets_.size() - 1; }
  /// \brief True iff no trace has been added.
  bool empty() const { return size() == 0; }
  /// \brief Total number of events added so far.
  size_t TotalEvents() const { return arena_.size(); }

  /// \brief Trace \p id as appended so far (unchecked). The view is valid
  /// until the next append.
  EventSpan operator[](SeqId id) const {
    return EventSpan(arena_.data() + offsets_[id],
                     arena_.data() + offsets_[id + 1]);
  }

  /// \brief The dictionary being populated.
  const EventDictionary& dictionary() const { return dictionary_; }
  /// \brief Mutable dictionary (used by generators that pre-intern names).
  EventDictionary* mutable_dictionary() { return &dictionary_; }

  /// \brief Finalizes into an immutable database. The builder is left
  /// empty and reusable.
  SequenceDatabase Build();

 private:
  EventDictionary dictionary_;
  std::vector<EventId> arena_;
  std::vector<uint64_t> offsets_;  // Always starts with 0.
};

/// \brief Verifies that \p db fits the uint32 addressing of the counting
/// index: the arena length and every per-sequence position must be
/// representable as a uint32 (with kNoPos reserved as a sentinel).
/// Returns OutOfRange naming the violating quantity, else OK. The Engine
/// façade and the trace readers check it up front so oversized inputs
/// surface as errors instead of silently wrapped positions.
Status CheckIndexable(const SequenceDatabase& db);

}  // namespace specmine

#endif  // SPECMINE_TRACE_SEQUENCE_DATABASE_H_
