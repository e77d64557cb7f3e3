#include "block/blocker.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "text/tokenizer.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace emba {
namespace block {
namespace {

uint64_t Fnv1a64(const std::string& s, uint64_t seed) {
  uint64_t h = 1469598103934665603ull ^ seed;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<std::string> RecordTokens(const data::Record& record) {
  return text::BasicTokenize(record.Description());
}

// Sort + unique, recording how many raw candidates each blocker emitted and
// how many the dedup pass dropped (the same pair surfacing via several keys).
std::vector<CandidatePair> Dedup(std::vector<CandidatePair> pairs) {
  static metrics::Counter& generated =
      metrics::GetCounter("blocking.candidates_generated");
  static metrics::Counter& pruned =
      metrics::GetCounter("blocking.candidates_pruned");
  const size_t raw = pairs.size();
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  generated.Increment(raw);
  pruned.Increment(raw - pairs.size());
  return pairs;
}

}  // namespace

std::vector<CandidatePair> TokenBlocker::Candidates(
    const std::vector<data::Record>& left,
    const std::vector<data::Record>& right) const {
  EMBA_TRACE_SPAN_ARGS("block/token_blocker",
                       {"records", left.size() + right.size()});
  // Count document frequency across both sides to suppress stop tokens.
  std::unordered_map<std::string, size_t> doc_freq;
  auto count_side = [&](const std::vector<data::Record>& records) {
    for (const auto& record : records) {
      std::unordered_set<std::string> seen;
      for (auto& token : RecordTokens(record)) seen.insert(std::move(token));
      for (const auto& token : seen) ++doc_freq[token];
    }
  };
  count_side(left);
  count_side(right);
  const size_t total = left.size() + right.size();
  // Fractional stop-token cutoff, floored at 2: any genuinely shared token
  // appears in at least two records, so a floor below 2 would suppress
  // every blocking key in small collections.
  const size_t cutoff = std::max<size_t>(
      2, static_cast<size_t>(config_.max_token_frequency *
                             static_cast<double>(total)));

  std::unordered_map<std::string, std::vector<size_t>> right_index;
  for (size_t j = 0; j < right.size(); ++j) {
    std::unordered_set<std::string> seen;
    for (auto& token : RecordTokens(right[j])) seen.insert(std::move(token));
    for (const auto& token : seen) {
      if (doc_freq[token] <= cutoff) {
        right_index[token].push_back(j);
      }
    }
  }

  // Probing the (read-only) index is independent per left record; each
  // record's candidates land in its own slot and are concatenated in order.
  // Dedup sorts at the end, so the result is thread-count invariant.
  std::vector<std::vector<CandidatePair>> per_left(left.size());
  GlobalThreadPool().ParallelFor(
      0, static_cast<int64_t>(left.size()), /*grain=*/32, [&](int64_t idx) {
        const size_t i = static_cast<size_t>(idx);
        std::unordered_map<size_t, int> shared;
        std::unordered_set<std::string> seen;
        for (auto& token : RecordTokens(left[i])) seen.insert(std::move(token));
        for (const auto& token : seen) {
          auto it = right_index.find(token);
          if (it == right_index.end()) continue;
          for (size_t j : it->second) ++shared[j];
        }
        for (const auto& [j, count] : shared) {
          if (count >= config_.min_shared) per_left[i].emplace_back(i, j);
        }
      });
  std::vector<CandidatePair> out;
  for (auto& pairs : per_left) {
    out.insert(out.end(), pairs.begin(), pairs.end());
  }
  return Dedup(std::move(out));
}

MinHashBlocker::MinHashBlocker(MinHashBlockerConfig config)
    : config_(config) {
  EMBA_CHECK_MSG(config_.num_hashes % config_.bands == 0,
                 "num_hashes must be divisible by bands");
  Rng rng(config_.seed);
  hash_seeds_.resize(static_cast<size_t>(config_.num_hashes));
  for (auto& s : hash_seeds_) s = rng.NextU64();
}

std::vector<uint64_t> MinHashBlocker::Signature(
    const data::Record& record) const {
  const std::string text = AsciiToLower(record.Description());
  std::vector<uint64_t> signature(hash_seeds_.size(), UINT64_MAX);
  const int k = config_.shingle_size;
  if (static_cast<int>(text.size()) < k) {
    for (size_t h = 0; h < hash_seeds_.size(); ++h) {
      signature[h] = Fnv1a64(text, hash_seeds_[h]);
    }
    return signature;
  }
  for (size_t start = 0; start + static_cast<size_t>(k) <= text.size();
       ++start) {
    const std::string shingle = text.substr(start, static_cast<size_t>(k));
    for (size_t h = 0; h < hash_seeds_.size(); ++h) {
      signature[h] = std::min(signature[h], Fnv1a64(shingle, hash_seeds_[h]));
    }
  }
  return signature;
}

double MinHashBlocker::EstimateJaccard(const std::vector<uint64_t>& a,
                                       const std::vector<uint64_t>& b) {
  EMBA_CHECK_MSG(a.size() == b.size() && !a.empty(),
                 "signature size mismatch");
  size_t equal = 0;
  for (size_t i = 0; i < a.size(); ++i) equal += a[i] == b[i];
  return static_cast<double>(equal) / static_cast<double>(a.size());
}

std::vector<CandidatePair> MinHashBlocker::Candidates(
    const std::vector<data::Record>& left,
    const std::vector<data::Record>& right) const {
  EMBA_TRACE_SPAN_ARGS("block/minhash_blocker",
                       {"records", left.size() + right.size()});
  const int rows = config_.num_hashes / config_.bands;
  // Signature computation dominates MinHash blocking and is independent per
  // record — fan it out with index-addressed writes.
  std::vector<std::vector<uint64_t>> right_signatures(right.size());
  GlobalThreadPool().ParallelFor(
      0, static_cast<int64_t>(right.size()), /*grain=*/8, [&](int64_t j) {
        right_signatures[static_cast<size_t>(j)] =
            Signature(right[static_cast<size_t>(j)]);
      });

  // Bucket right records per band.
  std::vector<std::unordered_map<uint64_t, std::vector<size_t>>> band_buckets(
      static_cast<size_t>(config_.bands));
  for (size_t j = 0; j < right.size(); ++j) {
    for (int b = 0; b < config_.bands; ++b) {
      uint64_t key = 1469598103934665603ull;
      for (int r = 0; r < rows; ++r) {
        key ^= right_signatures[j][static_cast<size_t>(b * rows + r)];
        key *= 1099511628211ull;
      }
      band_buckets[static_cast<size_t>(b)][key].push_back(j);
    }
  }

  // Bucket probing is read-only; per-record candidate lists are merged in
  // record order and deduped by sort, so output is thread-count invariant.
  std::vector<std::vector<CandidatePair>> per_left(left.size());
  GlobalThreadPool().ParallelFor(
      0, static_cast<int64_t>(left.size()), /*grain=*/8, [&](int64_t idx) {
        const size_t i = static_cast<size_t>(idx);
        std::vector<uint64_t> signature = Signature(left[i]);
        std::unordered_set<size_t> matched;
        for (int b = 0; b < config_.bands; ++b) {
          uint64_t key = 1469598103934665603ull;
          for (int r = 0; r < rows; ++r) {
            key ^= signature[static_cast<size_t>(b * rows + r)];
            key *= 1099511628211ull;
          }
          auto it = band_buckets[static_cast<size_t>(b)].find(key);
          if (it == band_buckets[static_cast<size_t>(b)].end()) continue;
          for (size_t j : it->second) matched.insert(j);
        }
        for (size_t j : matched) per_left[i].emplace_back(i, j);
      });
  std::vector<CandidatePair> out;
  for (auto& pairs : per_left) {
    out.insert(out.end(), pairs.begin(), pairs.end());
  }
  return Dedup(std::move(out));
}

std::string SortedNeighborhoodBlocker::SortKey(const data::Record& record) {
  std::string best;
  for (const auto& token : RecordTokens(record)) {
    if (token.size() < 3) continue;
    const bool token_has_digit = ContainsDigit(token);
    const bool best_has_digit = ContainsDigit(best);
    if (best.empty() || (token_has_digit && !best_has_digit) ||
        (token_has_digit == best_has_digit && token.size() > best.size())) {
      best = token;
    }
  }
  return best;
}

std::vector<CandidatePair> SortedNeighborhoodBlocker::Candidates(
    const std::vector<data::Record>& left,
    const std::vector<data::Record>& right) const {
  EMBA_TRACE_SPAN_ARGS("block/sorted_neighborhood",
                       {"records", left.size() + right.size()});
  // Merge both sides into one keyed sequence, then pair cross-side records
  // within the window.
  struct Entry {
    std::string key;
    size_t index;
    bool is_left;
  };
  std::vector<Entry> entries;
  entries.reserve(left.size() + right.size());
  for (size_t i = 0; i < left.size(); ++i) {
    entries.push_back({SortKey(left[i]), i, true});
  }
  for (size_t j = 0; j < right.size(); ++j) {
    entries.push_back({SortKey(right[j]), j, false});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });

  std::vector<CandidatePair> out;
  for (size_t p = 0; p < entries.size(); ++p) {
    for (size_t q = p + 1;
         q < entries.size() && q - p <= static_cast<size_t>(config_.window);
         ++q) {
      if (entries[p].is_left == entries[q].is_left) continue;
      const Entry& l = entries[p].is_left ? entries[p] : entries[q];
      const Entry& r = entries[p].is_left ? entries[q] : entries[p];
      out.emplace_back(l.index, r.index);
    }
  }
  return Dedup(std::move(out));
}

BlockingQuality EvaluateBlocking(
    const std::vector<data::Record>& left,
    const std::vector<data::Record>& right,
    const std::vector<CandidatePair>& candidates) {
  BlockingQuality quality;
  quality.candidates = candidates.size();
  std::set<CandidatePair> candidate_set(candidates.begin(), candidates.end());
  for (size_t i = 0; i < left.size(); ++i) {
    for (size_t j = 0; j < right.size(); ++j) {
      if (left[i].entity_id >= 0 && left[i].entity_id == right[j].entity_id) {
        ++quality.true_matches;
        if (candidate_set.count({i, j})) ++quality.covered_matches;
      }
    }
  }
  quality.pair_completeness =
      quality.true_matches > 0
          ? static_cast<double>(quality.covered_matches) /
                static_cast<double>(quality.true_matches)
          : 1.0;
  const double space =
      static_cast<double>(left.size()) * static_cast<double>(right.size());
  quality.reduction_ratio =
      space > 0.0 ? 1.0 - static_cast<double>(candidates.size()) / space : 0.0;
  return quality;
}

}  // namespace block
}  // namespace emba
