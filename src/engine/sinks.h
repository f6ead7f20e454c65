// Composable output sinks for Engine tasks, replacing the per-miner
// std::function callbacks. A sink receives each mined item in the miner's
// canonical emission order; returning false asks the producer to stop (for
// the streaming full-pattern scan this prunes the current subtree, exactly
// like ScanFrequentIterative's callback; for materialized miners it stops
// delivery and the RunReport is marked truncated).
//
// Sinks compose by wrapping (TeePatternSink{collector, writer}) and are
// deliberately allocation-light so a server loop can stack them per
// request.

#ifndef SPECMINE_ENGINE_SINKS_H_
#define SPECMINE_ENGINE_SINKS_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/patterns/pattern_set.h"
#include "src/rulemine/rule.h"
#include "src/twoevent/perracotta.h"

namespace specmine {

// ---------------------------------------------------------------------------
// Interfaces.

/// \brief Receiver of mined (pattern, support) items.
class PatternSink {
 public:
  virtual ~PatternSink() = default;
  /// \brief Called once per emitted pattern. Return false to stop the
  /// producer (subtree prune in streaming scans, delivery stop otherwise).
  virtual bool Consume(const Pattern& pattern, uint64_t support) = 0;
};

/// \brief Receiver of mined rules.
class RuleSink {
 public:
  virtual ~RuleSink() = default;
  /// \brief Called once per emitted rule. Return false to stop delivery.
  virtual bool Consume(const Rule& rule) = 0;
};

/// \brief Receiver of mined two-event (Perracotta) rules.
class TwoEventSink {
 public:
  virtual ~TwoEventSink() = default;
  /// \brief Called once per emitted rule. Return false to stop delivery.
  virtual bool Consume(const TwoEventRule& rule) = 0;
};

// ---------------------------------------------------------------------------
// Pattern sinks.

/// \brief Collects everything into a PatternSet.
class CollectingPatternSink : public PatternSink {
 public:
  bool Consume(const Pattern& pattern, uint64_t support) override {
    set_.Add(pattern, support);
    return true;
  }
  /// \brief The patterns collected so far, in emission order.
  const PatternSet& set() const { return set_; }
  /// \brief Moves the collected set out (the sink is left empty).
  PatternSet TakeSet() { return std::move(set_); }

 private:
  PatternSet set_;
};

/// \brief Counts emissions (and tracks the best support) without storing
/// patterns — the cheapest way to size a result before paying for it.
class CountingPatternSink : public PatternSink {
 public:
  bool Consume(const Pattern& pattern, uint64_t support) override;
  size_t count() const { return count_; }
  uint64_t max_support() const { return max_support_; }
  size_t longest_length() const { return longest_length_; }

 private:
  size_t count_ = 0;
  uint64_t max_support_ = 0;
  size_t longest_length_ = 0;
};

/// \brief Keeps only the k best patterns by (support desc, pattern lex
/// asc) — the canonical report order — in O(k) memory.
class TopKPatternSink : public PatternSink {
 public:
  explicit TopKPatternSink(size_t k) : k_(k) {}

  bool Consume(const Pattern& pattern, uint64_t support) override;

  /// \brief The k (or fewer) best patterns, best first.
  PatternSet TakeSorted();

 private:
  void Shrink(size_t limit);

  size_t k_;
  std::vector<MinedPattern> buffer_;
};

/// \brief Streams "pattern  sup=N" lines (PatternSet::ToString's line
/// format) to an ostream as they are mined — no buffering.
class WriterPatternSink : public PatternSink {
 public:
  WriterPatternSink(std::ostream& out, const EventDictionary& dict)
      : out_(out), dict_(dict) {}

  bool Consume(const Pattern& pattern, uint64_t support) override;

 private:
  std::ostream& out_;
  const EventDictionary& dict_;
};

/// \brief Forwards to two sinks; asks to stop once either does.
class TeePatternSink : public PatternSink {
 public:
  TeePatternSink(PatternSink& first, PatternSink& second)
      : first_(first), second_(second) {}

  bool Consume(const Pattern& pattern, uint64_t support) override {
    const bool keep_first = first_.Consume(pattern, support);
    const bool keep_second = second_.Consume(pattern, support);
    return keep_first && keep_second;
  }

 private:
  PatternSink& first_;
  PatternSink& second_;
};

// ---------------------------------------------------------------------------
// Rule sinks.

/// \brief Collects everything into a RuleSet.
class CollectingRuleSink : public RuleSink {
 public:
  bool Consume(const Rule& rule) override {
    set_.Add(rule);
    return true;
  }
  /// \brief The rules collected so far, in emission order.
  const RuleSet& set() const { return set_; }
  /// \brief Moves the collected set out (the sink is left empty).
  RuleSet TakeSet() { return std::move(set_); }

 private:
  RuleSet set_;
};

/// \brief Counts emissions without storing rules.
class CountingRuleSink : public RuleSink {
 public:
  bool Consume(const Rule& rule) override;
  size_t count() const { return count_; }
  /// Highest confidence seen (0 when empty).
  double best_confidence() const { return best_confidence_; }

 private:
  size_t count_ = 0;
  double best_confidence_ = 0.0;
};

/// \brief Keeps only the k best rules by the canonical quality order
/// (confidence desc, s-support desc, concatenation lex) in O(k) memory.
class TopKRuleSink : public RuleSink {
 public:
  explicit TopKRuleSink(size_t k) : k_(k) {}

  bool Consume(const Rule& rule) override;

  /// \brief The k (or fewer) best rules, best first.
  RuleSet TakeSorted();

 private:
  void Shrink(size_t limit);

  size_t k_;
  std::vector<Rule> buffer_;
};

/// \brief Streams Rule::ToString lines to an ostream as rules are mined.
class WriterRuleSink : public RuleSink {
 public:
  WriterRuleSink(std::ostream& out, const EventDictionary& dict)
      : out_(out), dict_(dict) {}

  bool Consume(const Rule& rule) override;

 private:
  std::ostream& out_;
  const EventDictionary& dict_;
};

/// \brief Forwards to two rule sinks; asks to stop once either does.
class TeeRuleSink : public RuleSink {
 public:
  TeeRuleSink(RuleSink& first, RuleSink& second)
      : first_(first), second_(second) {}

  bool Consume(const Rule& rule) override {
    const bool keep_first = first_.Consume(rule);
    const bool keep_second = second_.Consume(rule);
    return keep_first && keep_second;
  }

 private:
  RuleSink& first_;
  RuleSink& second_;
};

// ---------------------------------------------------------------------------
// Two-event sinks.

/// \brief Collects two-event rules into a vector.
class CollectingTwoEventSink : public TwoEventSink {
 public:
  bool Consume(const TwoEventRule& rule) override {
    rules_.push_back(rule);
    return true;
  }
  /// \brief The rules collected so far, in emission order.
  const std::vector<TwoEventRule>& rules() const { return rules_; }
  /// \brief Moves the collected rules out (the sink is left empty).
  std::vector<TwoEventRule> TakeRules() { return std::move(rules_); }

 private:
  std::vector<TwoEventRule> rules_;
};

}  // namespace specmine

#endif  // SPECMINE_ENGINE_SINKS_H_
