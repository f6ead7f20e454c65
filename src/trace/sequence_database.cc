#include "src/trace/sequence_database.h"

#include <utility>

#include "src/support/strings.h"

namespace specmine {

SequenceDatabase::SequenceDatabase() {
  owned_offsets_.push_back(0);
  Repoint();
}

SequenceDatabase::SequenceDatabase(const SequenceDatabase& other)
    : dictionary_(other.dictionary_),
      owned_arena_(other.owned_arena_),
      owned_offsets_(other.owned_offsets_),
      arena_(other.arena_),
      offsets_(other.offsets_),
      num_seqs_(other.num_seqs_) {
  Repoint();
}

SequenceDatabase::SequenceDatabase(SequenceDatabase&& other) noexcept
    : dictionary_(std::move(other.dictionary_)),
      owned_arena_(std::move(other.owned_arena_)),
      owned_offsets_(std::move(other.owned_offsets_)),
      arena_(other.arena_),
      offsets_(other.offsets_),
      num_seqs_(other.num_seqs_) {
  Repoint();
  other.owned_arena_.clear();
  other.owned_offsets_.assign(1, 0);
  other.num_seqs_ = 0;
  other.Repoint();
}

SequenceDatabase& SequenceDatabase::operator=(const SequenceDatabase& other) {
  if (this == &other) return *this;
  SequenceDatabase copy(other);
  *this = std::move(copy);
  return *this;
}

SequenceDatabase& SequenceDatabase::operator=(
    SequenceDatabase&& other) noexcept {
  if (this == &other) return *this;
  dictionary_ = std::move(other.dictionary_);
  owned_arena_ = std::move(other.owned_arena_);
  owned_offsets_ = std::move(other.owned_offsets_);
  arena_ = other.arena_;
  offsets_ = other.offsets_;
  num_seqs_ = other.num_seqs_;
  Repoint();
  other.owned_arena_.clear();
  other.owned_offsets_.assign(1, 0);
  other.num_seqs_ = 0;
  other.Repoint();
  return *this;
}

void SequenceDatabase::Repoint() {
  if (owned_offsets_.empty()) return;  // View: keep the external pointers.
  arena_ = owned_arena_.data();
  offsets_ = owned_offsets_.data();
}

SequenceDatabase SequenceDatabase::WrapView(EventDictionary dictionary,
                                            const EventId* arena,
                                            const uint64_t* offsets,
                                            size_t num_sequences) {
  SequenceDatabase db;
  db.dictionary_ = std::move(dictionary);
  db.owned_arena_.clear();
  db.owned_offsets_.clear();
  db.arena_ = arena;
  db.offsets_ = offsets;
  db.num_seqs_ = num_sequences;
  return db;
}

Result<EventSpan> SequenceDatabase::at(SeqId id) const {
  if (id >= num_seqs_) {
    return Status::OutOfRange("sequence id " + std::to_string(id) +
                              " out of range (database has " +
                              std::to_string(num_seqs_) + " sequences)");
  }
  return (*this)[id];
}

SeqId SequenceDatabaseBuilder::AddTrace(
    const std::vector<std::string>& event_names) {
  for (const auto& name : event_names) {
    arena_.push_back(dictionary_.Intern(name));
  }
  offsets_.push_back(arena_.size());
  return static_cast<SeqId>(offsets_.size() - 2);
}

SeqId SequenceDatabaseBuilder::AddSequence(EventSpan events) {
  arena_.insert(arena_.end(), events.begin(), events.end());
  offsets_.push_back(arena_.size());
  return static_cast<SeqId>(offsets_.size() - 2);
}

SeqId SequenceDatabaseBuilder::AddTraceFromString(std::string_view line) {
  for (const auto& tok : SplitAndTrim(line, ' ')) {
    arena_.push_back(dictionary_.Intern(tok));
  }
  offsets_.push_back(arena_.size());
  return static_cast<SeqId>(offsets_.size() - 2);
}

SequenceDatabase SequenceDatabaseBuilder::Build() {
  SequenceDatabase db;
  db.dictionary_ = std::move(dictionary_);
  db.owned_arena_ = std::move(arena_);
  db.owned_offsets_ = std::move(offsets_);
  db.num_seqs_ = db.owned_offsets_.size() - 1;
  db.Repoint();
  dictionary_ = EventDictionary();
  arena_.clear();
  offsets_.assign(1, 0);
  return db;
}

Status CheckIndexable(const SequenceDatabase& db) {
  // Index positions are uint32 (kNoPos reserved as a sentinel); past that
  // the index build would wrap and scatter out of bounds. A database this
  // large needs a sharded index first.
  if (db.TotalEvents() >= kNoPos) {
    return Status::OutOfRange(
        "database has " + std::to_string(db.TotalEvents()) +
        " events, beyond the 2^32-2 the index's uint32 offsets can address");
  }
  const uint64_t* offsets = db.offsets();
  for (SeqId s = 0; s < db.size(); ++s) {
    const uint64_t len = offsets[s + 1] - offsets[s];
    if (len >= kNoPos) {
      return Status::OutOfRange(
          "sequence " + std::to_string(s) + " has " + std::to_string(len) +
          " events, beyond the uint32 position range");
    }
  }
  return Status::OK();
}

}  // namespace specmine
