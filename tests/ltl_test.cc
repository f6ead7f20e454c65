// Unit tests for src/ltl: AST, Table-2 translation, finite-trace checker,
// parser round trips, and the checker-vs-miner confidence cross-check.

#include <gtest/gtest.h>

#include "src/ltl/checker.h"
#include "src/ltl/parser.h"
#include "src/ltl/translate.h"
#include "src/rulemine/rule_miner.h"
#include "src/support/strings.h"

namespace specmine {
namespace {

SequenceDatabase MakeDb(const std::vector<std::string>& traces) {
  SequenceDatabaseBuilder db;
  for (const auto& t : traces) db.AddTraceFromString(t);
  return db.Build();
}

Pattern P(const SequenceDatabase& db, const std::string& names) {
  Pattern p;
  for (const auto& tok : SplitAndTrim(names, ' ')) {
    EventId id = db.dictionary().Lookup(tok);
    EXPECT_NE(id, kInvalidEvent) << tok;
    p = p.Extend(id);
  }
  return p;
}

LtlPtr Atom(const char* s) { return LtlFormula::Atom(s); }

// ---------------------------------------------------------------------------
// AST + printing.

TEST(LtlFormulaTest, ToStringRendersOperators) {
  LtlPtr f = LtlFormula::Globally(LtlFormula::Implies(
      Atom("lock"),
      LtlFormula::Next(LtlFormula::Finally(Atom("unlock")))));
  EXPECT_EQ(f->ToString(), "G(lock -> XF(unlock))");
}

TEST(LtlFormulaTest, JuxtaposedUnaryChains) {
  LtlPtr f = LtlFormula::Next(
      LtlFormula::Globally(LtlFormula::Finally(Atom("a"))));
  EXPECT_EQ(f->ToString(), "XGF(a)");
}

TEST(LtlFormulaTest, StructuralEquality) {
  LtlPtr a = LtlFormula::And(Atom("x"), Atom("y"));
  LtlPtr b = LtlFormula::And(Atom("x"), Atom("y"));
  LtlPtr c = LtlFormula::And(Atom("y"), Atom("x"));
  EXPECT_TRUE(LtlFormula::Equal(a, b));
  EXPECT_FALSE(LtlFormula::Equal(a, c));
  EXPECT_FALSE(LtlFormula::Equal(a, Atom("x")));
}

// ---------------------------------------------------------------------------
// Table 2 translations.

TEST(TranslateTest, Table2Row1) {
  // a -> b  |  G(a -> XF(b))
  EventDictionary dict;
  dict.Intern("a");
  dict.Intern("b");
  LtlPtr f = RuleToLtl(Pattern{0}, Pattern{1}, dict);
  EXPECT_EQ(f->ToString(), "G(a -> XF(b))");
  EXPECT_TRUE(InMinableFragment(f));
}

TEST(TranslateTest, Table2Row2) {
  // <a, b> -> c  |  G(a -> XG(b -> XF(c)))
  EventDictionary dict;
  dict.Intern("a");
  dict.Intern("b");
  dict.Intern("c");
  LtlPtr f = RuleToLtl(Pattern{0, 1}, Pattern{2}, dict);
  EXPECT_EQ(f->ToString(), "G(a -> WXG(b -> XF(c)))");
  EXPECT_TRUE(InMinableFragment(f));
}

TEST(TranslateTest, Table2Row3) {
  // a -> <b, c>  |  G(a -> XF(b && XF(c)))
  EventDictionary dict;
  dict.Intern("a");
  dict.Intern("b");
  dict.Intern("c");
  LtlPtr f = RuleToLtl(Pattern{0}, Pattern{1, 2}, dict);
  EXPECT_EQ(f->ToString(), "G(a -> XF(b && XF(c)))");
  EXPECT_TRUE(InMinableFragment(f));
}

TEST(TranslateTest, Table2Row4) {
  // <a, b> -> <c, d>  |  G(a -> XG(b -> XF(c && XF(d))))
  EventDictionary dict;
  dict.Intern("a");
  dict.Intern("b");
  dict.Intern("c");
  dict.Intern("d");
  LtlPtr f = RuleToLtl(Pattern{0, 1}, Pattern{2, 3}, dict);
  EXPECT_EQ(f->ToString(), "G(a -> WXG(b -> XF(c && XF(d))))");
  EXPECT_TRUE(InMinableFragment(f));
}

TEST(TranslateTest, FragmentRecognizerRejectsOtherShapes) {
  EXPECT_FALSE(InMinableFragment(Atom("a")));
  EXPECT_FALSE(InMinableFragment(LtlFormula::Globally(Atom("a"))));
  EXPECT_FALSE(InMinableFragment(
      LtlFormula::Finally(LtlFormula::Implies(Atom("a"), Atom("b")))));
}

// ---------------------------------------------------------------------------
// Finite-trace checker (Table 1 semantics).

TEST(CheckerTest, AtomAndBooleans) {
  std::vector<std::string> trace{"a", "b"};
  EXPECT_TRUE(EvaluateLtl(Atom("a"), trace, 0));
  EXPECT_FALSE(EvaluateLtl(Atom("b"), trace, 0));
  EXPECT_TRUE(EvaluateLtl(LtlFormula::And(Atom("a"), Atom("a")), trace, 0));
  EXPECT_FALSE(EvaluateLtl(LtlFormula::And(Atom("a"), Atom("b")), trace, 0));
  EXPECT_TRUE(
      EvaluateLtl(LtlFormula::Implies(Atom("b"), Atom("zzz")), trace, 0));
}

TEST(CheckerTest, FinallyEventually) {
  std::vector<std::string> trace{"x", "y", "unlock"};
  EXPECT_TRUE(EvaluateLtl(LtlFormula::Finally(Atom("unlock")), trace, 0));
  EXPECT_TRUE(EvaluateLtl(LtlFormula::Finally(Atom("unlock")), trace, 2));
  EXPECT_FALSE(EvaluateLtl(LtlFormula::Finally(Atom("lock")), trace, 0));
}

TEST(CheckerTest, NextIsStrong) {
  std::vector<std::string> trace{"a", "b"};
  EXPECT_TRUE(EvaluateLtl(LtlFormula::Next(Atom("b")), trace, 0));
  EXPECT_FALSE(EvaluateLtl(LtlFormula::Next(Atom("b")), trace, 1));
  // XF at the last position: no successor.
  EXPECT_FALSE(EvaluateLtl(
      LtlFormula::Next(LtlFormula::Finally(Atom("b"))), trace, 1));
}

TEST(CheckerTest, WeakNextVacuousAtTraceEnd) {
  std::vector<std::string> trace{"a", "b"};
  EXPECT_TRUE(EvaluateLtl(LtlFormula::WeakNext(Atom("b")), trace, 0));
  EXPECT_FALSE(EvaluateLtl(LtlFormula::WeakNext(Atom("a")), trace, 0));
  // No successor: weak next is vacuously true where strong next fails.
  EXPECT_TRUE(EvaluateLtl(LtlFormula::WeakNext(Atom("zzz")), trace, 1));
  EXPECT_FALSE(EvaluateLtl(LtlFormula::Next(Atom("zzz")), trace, 1));
}

TEST(CheckerTest, MultiEventPremiseVacuousAtTraceEnd) {
  // Rule <a, b> -> <c> on a trace whose final event is a: no temporal
  // point exists, so the formula must hold (this is what WX buys on
  // finite traces).
  EventDictionary dict;
  dict.Intern("a");
  dict.Intern("b");
  dict.Intern("c");
  LtlPtr f = RuleToLtl(Pattern{0, 1}, Pattern{2}, dict);
  EXPECT_TRUE(EvaluateLtl(f, {"x", "a"}, 0));
  EXPECT_TRUE(EvaluateLtl(f, {"a"}, 0));
  EXPECT_FALSE(EvaluateLtl(f, {"a", "b"}, 0));  // Point at b, no c after.
  EXPECT_TRUE(EvaluateLtl(f, {"a", "b", "c"}, 0));
}

TEST(CheckerTest, GloballyVacuousPastEnd) {
  std::vector<std::string> trace{"a"};
  EXPECT_TRUE(EvaluateLtl(LtlFormula::Globally(Atom("a")), trace, 0));
  EXPECT_TRUE(EvaluateLtl(LtlFormula::Globally(Atom("zzz")), trace, 1));
}

TEST(CheckerTest, Table1LockUnlockExamples) {
  // G(lock -> XF(unlock)).
  EventDictionary dict;
  LtlPtr g = LtlFormula::Globally(LtlFormula::Implies(
      Atom("lock"), LtlFormula::Next(LtlFormula::Finally(Atom("unlock")))));
  EXPECT_TRUE(EvaluateLtl(g, {"lock", "use", "unlock"}, 0));
  EXPECT_TRUE(EvaluateLtl(
      g, {"lock", "unlock", "lock", "unlock"}, 0));
  EXPECT_FALSE(EvaluateLtl(g, {"lock", "use"}, 0));
  // Second lock unmatched.
  EXPECT_FALSE(EvaluateLtl(g, {"lock", "unlock", "lock"}, 0));
  // Vacuously true without lock.
  EXPECT_TRUE(EvaluateLtl(g, {"use", "use"}, 0));
}

TEST(CheckerTest, XNeededForRepeatedConsequentEvents) {
  // a -> <b, b> requires two *different* b occurrences.
  EventDictionary dict;
  dict.Intern("a");
  dict.Intern("b");
  LtlPtr f = RuleToLtl(Pattern{0}, Pattern{1, 1}, dict);
  EXPECT_EQ(f->ToString(), "G(a -> XF(b && XF(b)))");
  EXPECT_FALSE(EvaluateLtl(f, {"a", "b"}, 0));
  EXPECT_TRUE(EvaluateLtl(f, {"a", "b", "b"}, 0));
}

TEST(CheckerTest, DatabaseOverloadsAndCounting) {
  SequenceDatabase db = MakeDb({"a b", "a x", "y"});
  const EventDictionary& dict = db.dictionary();
  LtlPtr f = RuleToLtl(Pattern{dict.Lookup("a")}, Pattern{dict.Lookup("b")},
                       dict);
  EXPECT_TRUE(EvaluateLtl(f, db, 0));
  EXPECT_FALSE(EvaluateLtl(f, db, 1));
  EXPECT_TRUE(EvaluateLtl(f, db, 2));  // Vacuous.
  EXPECT_EQ(CountHolding(f, db), 2u);
  EXPECT_FALSE(HoldsOnAll(f, db));
}

// ---------------------------------------------------------------------------
// Parser.

TEST(ParserTest, RoundTripsTable2Forms) {
  for (const char* text : {
           "G(a -> XF(b))",
           "G(a -> XG(b -> XF(c)))",
           "G(a -> WXG(b -> XF(c)))",
           "G(a -> XF(b && XF(c)))",
           "G(a -> WXG(b -> XF(c && XF(d))))",
           "XGF(a)",
           "WXF(a)",
           "a && b && c",
           "G(TxManager.begin -> XF(TxManager.commit))",
       }) {
    Result<LtlPtr> parsed = ParseLtl(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    EXPECT_EQ((*parsed)->ToString(), text);
  }
}

TEST(ParserTest, ParsesRightAssociativeImplication) {
  Result<LtlPtr> parsed = ParseLtl("a -> b -> c");
  ASSERT_TRUE(parsed.ok());
  // a -> (b -> c).
  EXPECT_EQ((*parsed)->op(), LtlOp::kImplies);
  EXPECT_EQ((*parsed)->left()->op(), LtlOp::kAtom);
  EXPECT_EQ((*parsed)->right()->op(), LtlOp::kImplies);
}

TEST(ParserTest, SingleLettersAreAtomsUnlessApplied) {
  Result<LtlPtr> f = ParseLtl("G");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->op(), LtlOp::kAtom);
  EXPECT_EQ((*f)->name(), "G");
  Result<LtlPtr> g = ParseLtl("G(G)");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ((*g)->op(), LtlOp::kGlobally);
  EXPECT_EQ((*g)->left()->name(), "G");
}

TEST(ParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseLtl("").ok());
  EXPECT_FALSE(ParseLtl("G(a -> ").ok());
  EXPECT_FALSE(ParseLtl("(a && )").ok());
  EXPECT_FALSE(ParseLtl("a b").ok());
  EXPECT_FALSE(ParseLtl("-> a").ok());
}

TEST(ParserTest, ParseThenTranslateAgree) {
  EventDictionary dict;
  dict.Intern("open");
  dict.Intern("read");
  dict.Intern("close");
  LtlPtr built = RuleToLtl(Pattern{0}, Pattern{1, 2}, dict);
  Result<LtlPtr> parsed = ParseLtl(built->ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(LtlFormula::Equal(built, *parsed));
}

// ---------------------------------------------------------------------------
// Cross-validation: mined confidence 1.0 <=> LTL holds everywhere.

TEST(CrossCheckTest, Confidence1RulesHoldAsLtl) {
  SequenceDatabase db = MakeDb({
      "lock use unlock lock unlock",
      "x lock unlock",
      "open read close open close",
      "lock unlock open close",
  });
  RuleMinerOptions options;
  options.min_s_support = 2;
  options.min_confidence = 0.5;
  options.non_redundant = false;
  options.max_premise_length = 2;
  options.max_consequent_length = 2;
  RuleSet rules = MineRecurrentRules(HybridIndex(db), options);
  ASSERT_GT(rules.size(), 0u);
  size_t full_conf = 0;
  for (const Rule& r : rules.rules()) {
    LtlPtr f = RuleToLtl(r, db.dictionary());
    bool holds = HoldsOnAll(f, db);
    if (r.confidence() >= 1.0) {
      ++full_conf;
      EXPECT_TRUE(holds) << r.ToString(db.dictionary()) << " | "
                         << f->ToString();
    } else {
      EXPECT_FALSE(holds) << r.ToString(db.dictionary()) << " | "
                          << f->ToString();
    }
  }
  EXPECT_GT(full_conf, 0u);
}

}  // namespace
}  // namespace specmine
