#include "src/patterns/pattern_set.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace specmine {

void PatternSet::Add(Pattern p, uint64_t support) {
  items_.push_back(MinedPattern{std::move(p), support});
}

void PatternSet::SortBySupport() {
  std::sort(items_.begin(), items_.end(),
            [](const MinedPattern& a, const MinedPattern& b) {
              if (a.support != b.support) return a.support > b.support;
              return a.pattern < b.pattern;
            });
}

void PatternSet::SortLexicographic() {
  std::sort(items_.begin(), items_.end(),
            [](const MinedPattern& a, const MinedPattern& b) {
              return a.pattern < b.pattern;
            });
}

uint64_t PatternSet::SupportOf(const Pattern& p) const {
  auto it = std::find_if(items_.rbegin(), items_.rend(),
                         [&](const MinedPattern& m) { return m.pattern == p; });
  return it == items_.rend() ? 0 : it->support;
}

bool PatternSet::Contains(const Pattern& p) const {
  return std::any_of(items_.begin(), items_.end(),
                     [&](const MinedPattern& it) { return it.pattern == p; });
}

const MinedPattern& PatternSet::Longest() const {
  assert(!items_.empty());
  const MinedPattern* best = &items_[0];
  for (const auto& it : items_) {
    if (it.pattern.size() > best->pattern.size()) best = &it;
  }
  return *best;
}

std::string PatternSet::ToString(const EventDictionary& dict) const {
  std::ostringstream os;
  for (const auto& it : items_) {
    os << it.pattern.ToString(dict) << "  sup=" << it.support << '\n';
  }
  return os.str();
}

}  // namespace specmine
