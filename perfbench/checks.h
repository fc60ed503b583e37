// The benchmark's own correctness reference and checks.
//
// The expected answers are computed from the generated raw text alone:
// split on whitespace, track files, count, and map each spelling to the
// word id the served corpus's dictionary gives it. Nothing here decodes
// the grammar for the answers or borrows the test suite's reference.
// Answers are compared through a fingerprint of their canonical form,
// so a run keeps one 64-bit value per (generation, task) instead of the
// expected results themselves.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "compress/compressor.h"
#include "compress/dictionary.h"
#include "compress/format.h"
#include "tadoc/analytics.h"
#include "util/status.h"

namespace perfbench {

/// Order-sensitive 64-bit fingerprint of the result `out.task` selects.
uint64_t Fingerprint(const ntadoc::tadoc::AnalyticsOutput& out);

/// Fingerprint of the (gram, count summed over files) list of a ranked
/// inverted index. Equals Fingerprint() of a sequence count answer over
/// the same files exactly when every gram's counts agree.
uint64_t RankedSumFingerprint(
    const ntadoc::tadoc::RankedInvertedIndexResult& ranked);

/// Expected answers for a prefix of the corpus files.
struct Expected {
  uint64_t files = 0;
  uint64_t tokens = 0;  // raw whitespace-separated tokens
  std::array<uint64_t, 6> fingerprint{};  // indexed by Task
};

/// Tokenized raw corpus (see file comment).
class Reference {
 public:
  explicit Reference(const std::vector<ntadoc::compress::InputFile>& files);

  size_t num_files() const { return files_.size(); }

  /// Raw tokens in the first `n` files.
  uint64_t Tokens(size_t n) const;

  /// Raw bytes in files [begin, end).
  uint64_t Bytes(size_t begin, size_t end) const;

  /// Expected answers of all six tasks over the first `n` files, with
  /// spellings mapped through `dict`. NotFound if `dict` lacks a word.
  ntadoc::Result<Expected> Expect(
      size_t n, const ntadoc::compress::Dictionary& dict,
      const ntadoc::tadoc::AnalyticsOptions& opts) const;

  /// File `f`'s tokens joined by single spaces.
  std::string NormalizedText(size_t f) const;

 private:
  std::vector<std::string_view> spellings_;  // local id -> spelling
  std::vector<std::vector<uint32_t>> files_;  // local ids per file
  std::vector<uint64_t> bytes_;               // raw bytes per file
  std::vector<std::string> storage_;          // owns the raw text
};

// ---- Checks. Each returns true when the answer passes; on failure it
// appends the reason to *why. ----

/// The answer's fingerprint equals the expected one for its task.
bool CheckAnswer(const ntadoc::tadoc::AnalyticsOutput& out,
                 const Expected& expected, std::string* why);

/// The word-count total equals the raw token count.
bool CheckWordCountTotal(const ntadoc::tadoc::WordCountResult& wc,
                         uint64_t raw_tokens, std::string* why);

/// Per gram, the ranked inverted index's counts summed over files equal
/// the sequence count (two fingerprints from the same generation).
bool CheckRankedMatchesSequence(uint64_t ranked_sum_fp, uint64_t seq_fp,
                                std::string* why);

/// DecodeToText(corpus) yields exactly the first `files` raw files, each
/// equal to the raw text with whitespace normalised.
bool CheckDecodedText(const ntadoc::compress::CompressedCorpus& corpus,
                      const Reference& ref, size_t files, std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
