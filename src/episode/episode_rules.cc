#include "src/episode/episode_rules.h"

#include <sstream>
#include <unordered_map>

namespace specmine {

std::string EpisodeRule::ToString(const EventDictionary& dict) const {
  std::ostringstream os;
  os << antecedent.ToString(dict) << " => " << consequent.ToString(dict)
     << "  (fr=" << full_windows << ", conf=" << confidence() << ')';
  return os.str();
}

std::vector<EpisodeRule> MineEpisodeRules(const SequenceDatabase& db,
                                          const EpisodeRuleOptions& options) {
  WinepiOptions episode_options;
  episode_options.window_width = options.window_width;
  episode_options.min_window_count = options.min_window_count;
  episode_options.max_length = options.max_length;
  PatternSet episodes = MineWinepi(db, episode_options);
  // Window counts by episode, for the prefix lookups below.
  std::unordered_map<Pattern, uint64_t, PatternHash> windows_of;
  windows_of.reserve(episodes.size());
  for (const MinedPattern& e : episodes.items()) {
    windows_of[e.pattern] = e.support;
  }

  std::vector<EpisodeRule> rules;
  for (const MinedPattern& beta : episodes.items()) {
    if (beta.pattern.size() < 2) continue;
    // Every proper prefix of beta is a frequent episode (window counts are
    // anti-monotone), so its count is already in the set.
    for (size_t k = 1; k < beta.pattern.size(); ++k) {
      Pattern alpha(std::vector<EventId>(beta.pattern.events().begin(),
                                         beta.pattern.events().begin() + k));
      const auto found = windows_of.find(alpha);
      uint64_t alpha_windows = found == windows_of.end() ? 0 : found->second;
      if (alpha_windows == 0) {
        // Defensive: recompute (possible only if alpha was capped away).
        alpha_windows =
            CountSupportingWindows(alpha, db, options.window_width);
      }
      EpisodeRule rule;
      rule.antecedent = alpha;
      rule.consequent =
          Pattern(std::vector<EventId>(beta.pattern.events().begin() + k,
                                       beta.pattern.events().end()));
      rule.antecedent_windows = alpha_windows;
      rule.full_windows = beta.support;
      if (rule.confidence() >= options.min_confidence) {
        rules.push_back(std::move(rule));
      }
    }
  }
  return rules;
}

}  // namespace specmine
