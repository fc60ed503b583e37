#include "checks.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/hash.h"

namespace perfbench {

using ntadoc::HashCombine;
using ntadoc::HashString;
using ntadoc::Result;
using ntadoc::Status;
using ntadoc::compress::WordId;
using ntadoc::tadoc::AnalyticsOutput;
using ntadoc::tadoc::NgramKey;
using ntadoc::tadoc::Task;

namespace {

class Hasher {
 public:
  void Add(uint64_t v) { h_ = HashCombine(h_, v); }
  void Add(const NgramKey& k) {
    for (WordId w : k.words) Add(w);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0x6A09E667F3BCC908ULL;
};

struct GramHash {
  size_t operator()(const NgramKey& k) const {
    Hasher h;
    h.Add(k);
    return static_cast<size_t>(h.value());
  }
};

bool IsSpace(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}

}  // namespace

uint64_t Fingerprint(const AnalyticsOutput& out) {
  Hasher h;
  h.Add(static_cast<uint64_t>(out.task));
  switch (out.task) {
    case Task::kWordCount:
      h.Add(out.word_counts.size());
      for (const auto& [w, c] : out.word_counts) {
        h.Add(w);
        h.Add(c);
      }
      break;
    case Task::kSort:
      h.Add(out.sorted_words.size());
      for (const auto& [s, c] : out.sorted_words) {
        h.Add(HashString(s));
        h.Add(c);
      }
      break;
    case Task::kTermVector:
      h.Add(out.term_vectors.size());
      for (const auto& file : out.term_vectors) {
        h.Add(file.size());
        for (const auto& [w, c] : file) {
          h.Add(w);
          h.Add(c);
        }
      }
      break;
    case Task::kInvertedIndex:
      h.Add(out.inverted_index.size());
      for (const auto& [w, files] : out.inverted_index) {
        h.Add(w);
        h.Add(files.size());
        for (uint32_t f : files) h.Add(f);
      }
      break;
    case Task::kSequenceCount:
      h.Add(out.sequence_counts.size());
      for (const auto& [g, c] : out.sequence_counts) {
        h.Add(g);
        h.Add(c);
      }
      break;
    case Task::kRankedInvertedIndex:
      h.Add(out.ranked_index.size());
      for (const auto& [g, postings] : out.ranked_index) {
        h.Add(g);
        h.Add(postings.size());
        for (const auto& [f, c] : postings) {
          h.Add(f);
          h.Add(c);
        }
      }
      break;
  }
  return h.value();
}

uint64_t RankedSumFingerprint(
    const ntadoc::tadoc::RankedInvertedIndexResult& ranked) {
  // Mirrors Fingerprint()'s sequence-count branch.
  Hasher h;
  h.Add(static_cast<uint64_t>(Task::kSequenceCount));
  h.Add(ranked.size());
  for (const auto& [g, postings] : ranked) {
    uint64_t total = 0;
    for (const auto& p : postings) total += p.second;
    h.Add(g);
    h.Add(total);
  }
  return h.value();
}

Reference::Reference(const std::vector<ntadoc::compress::InputFile>& files) {
  storage_.reserve(files.size());
  for (const auto& f : files) storage_.push_back(f.content);
  std::unordered_map<std::string_view, uint32_t> ids;
  files_.resize(storage_.size());
  for (size_t f = 0; f < storage_.size(); ++f) {
    const std::string_view text = storage_[f];
    bytes_.push_back(text.size());
    size_t i = 0;
    while (i < text.size()) {
      while (i < text.size() && IsSpace(text[i])) ++i;
      const size_t start = i;
      while (i < text.size() && !IsSpace(text[i])) ++i;
      if (i == start) break;
      const std::string_view word = text.substr(start, i - start);
      auto [it, fresh] =
          ids.try_emplace(word, static_cast<uint32_t>(spellings_.size()));
      if (fresh) spellings_.push_back(word);
      files_[f].push_back(it->second);
    }
  }
}

uint64_t Reference::Tokens(size_t n) const {
  uint64_t total = 0;
  for (size_t f = 0; f < n && f < files_.size(); ++f) {
    total += files_[f].size();
  }
  return total;
}

uint64_t Reference::Bytes(size_t begin, size_t end) const {
  uint64_t total = 0;
  for (size_t f = begin; f < end && f < bytes_.size(); ++f) {
    total += bytes_[f];
  }
  return total;
}

std::string Reference::NormalizedText(size_t f) const {
  std::string out;
  for (uint32_t w : files_[f]) {
    if (!out.empty()) out.push_back(' ');
    out.append(spellings_[w]);
  }
  return out;
}

Result<Expected> Reference::Expect(
    size_t n, const ntadoc::compress::Dictionary& dict,
    const ntadoc::tadoc::AnalyticsOptions& opts) const {
  n = std::min(n, files_.size());
  Expected exp;
  exp.files = n;
  exp.tokens = Tokens(n);

  // Spelling -> the served dictionary's word id.
  std::vector<uint64_t> count(spellings_.size(), 0);
  for (size_t f = 0; f < n; ++f) {
    for (uint32_t w : files_[f]) ++count[w];
  }
  std::vector<WordId> wid(spellings_.size(), 0);
  for (size_t w = 0; w < spellings_.size(); ++w) {
    if (count[w] == 0) continue;
    auto id = dict.Find(spellings_[w]);
    if (!id.ok()) {
      return Status::NotFound("dictionary lacks '" +
                              std::string(spellings_[w]) + "'");
    }
    wid[w] = *id;
  }

  AnalyticsOutput out;
  auto record = [&](Task task) {
    out.task = task;
    exp.fingerprint[static_cast<size_t>(task)] = Fingerprint(out);
    out = AnalyticsOutput();
  };

  // word count, sort
  for (size_t w = 0; w < spellings_.size(); ++w) {
    if (count[w] != 0) out.word_counts.emplace_back(wid[w], count[w]);
  }
  std::sort(out.word_counts.begin(), out.word_counts.end());
  record(Task::kWordCount);
  for (size_t w = 0; w < spellings_.size(); ++w) {
    if (count[w] != 0) {
      out.sorted_words.emplace_back(std::string(spellings_[w]), count[w]);
    }
  }
  std::sort(out.sorted_words.begin(), out.sorted_words.end());
  record(Task::kSort);

  // Per-file word counts drive term vector and inverted index.
  std::vector<std::vector<std::pair<WordId, uint64_t>>> per_file(n);
  for (size_t f = 0; f < n; ++f) {
    std::vector<WordId> ids;
    ids.reserve(files_[f].size());
    for (uint32_t w : files_[f]) ids.push_back(wid[w]);
    std::sort(ids.begin(), ids.end());
    for (size_t i = 0; i < ids.size();) {
      size_t j = i;
      while (j < ids.size() && ids[j] == ids[i]) ++j;
      per_file[f].emplace_back(ids[i], j - i);
      i = j;
    }
  }
  for (const auto& counts : per_file) {
    auto top = counts;
    std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    if (top.size() > opts.top_k) top.resize(opts.top_k);
    out.term_vectors.push_back(std::move(top));
  }
  record(Task::kTermVector);
  {
    std::unordered_map<WordId, std::vector<uint32_t>> postings;
    for (size_t f = 0; f < n; ++f) {
      for (const auto& [w, c] : per_file[f]) {
        postings[w].push_back(static_cast<uint32_t>(f));
      }
    }
    for (auto& [w, files] : postings) {
      out.inverted_index.emplace_back(w, std::move(files));
    }
    std::sort(out.inverted_index.begin(), out.inverted_index.end());
  }
  record(Task::kInvertedIndex);

  // n-grams within each file: sequence count and ranked inverted index.
  std::unordered_map<NgramKey, uint64_t, GramHash> seq;
  std::unordered_map<NgramKey, std::vector<std::pair<uint32_t, uint64_t>>,
                     GramHash>
      ranked;
  const size_t len = opts.ngram;
  for (size_t f = 0; f < n; ++f) {
    const auto& toks = files_[f];
    std::unordered_map<NgramKey, uint64_t, GramHash> local;
    for (size_t i = 0; i + len <= toks.size(); ++i) {
      NgramKey key;
      for (size_t k = 0; k < len; ++k) key.words[k] = wid[toks[i + k]];
      ++local[key];
    }
    for (const auto& [g, c] : local) {
      seq[g] += c;
      ranked[g].emplace_back(static_cast<uint32_t>(f), c);
    }
  }
  out.sequence_counts.assign(seq.begin(), seq.end());
  std::sort(out.sequence_counts.begin(), out.sequence_counts.end());
  record(Task::kSequenceCount);
  seq.clear();
  for (auto& [g, postings] : ranked) {
    std::sort(postings.begin(), postings.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    out.ranked_index.emplace_back(g, std::move(postings));
  }
  std::sort(out.ranked_index.begin(), out.ranked_index.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  record(Task::kRankedInvertedIndex);
  return exp;
}

bool CheckAnswer(const AnalyticsOutput& out, const Expected& expected,
                 std::string* why) {
  const uint64_t want = expected.fingerprint[static_cast<size_t>(out.task)];
  if (Fingerprint(out) == want) return true;
  *why += std::string(ntadoc::tadoc::TaskToString(out.task)) +
          ": answer differs from the reference over " +
          std::to_string(expected.files) + " files; ";
  return false;
}

bool CheckWordCountTotal(const ntadoc::tadoc::WordCountResult& wc,
                         uint64_t raw_tokens, std::string* why) {
  uint64_t total = 0;
  for (const auto& p : wc) total += p.second;
  if (total == raw_tokens) return true;
  *why += "word count total " + std::to_string(total) + " != raw tokens " +
          std::to_string(raw_tokens) + "; ";
  return false;
}

bool CheckRankedMatchesSequence(uint64_t ranked_sum_fp, uint64_t seq_fp,
                                std::string* why) {
  if (ranked_sum_fp == seq_fp) return true;
  *why += "ranked inverted index summed over files != sequence count; ";
  return false;
}

bool CheckDecodedText(const ntadoc::compress::CompressedCorpus& corpus,
                      const Reference& ref, size_t files, std::string* why) {
  const std::vector<std::string> text =
      ntadoc::compress::DecodeToText(corpus);
  if (text.size() != files || files > ref.num_files()) {
    *why += "decoded " + std::to_string(text.size()) + " files, expected " +
            std::to_string(files) + "; ";
    return false;
  }
  for (size_t f = 0; f < text.size(); ++f) {
    if (text[f] != ref.NormalizedText(f)) {
      *why += "decoded text of file " + std::to_string(f) +
              " differs from the raw file; ";
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
