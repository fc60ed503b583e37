// Self-test of the benchmark's correctness checks: every check accepts
// the engine's real answers on a small corpus and rejects the same
// answer corrupted by one count (or, for the decode check, one token).
// Exits 0 when every check behaves; run with `perfbench/run.py --selftest`.

#include <cstdio>
#include <functional>
#include <string>

#include "checks.h"
#include "core/engine.h"
#include "nvm/nvm_device.h"
#include "textgen/generator.h"

namespace perfbench {
namespace {

using ntadoc::tadoc::AnalyticsOutput;
using ntadoc::tadoc::Task;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// The answer passes, and fails once `corrupt` changed one count.
void ExpectRejects(const AnalyticsOutput& good, const Expected& exp,
                   const std::function<void(AnalyticsOutput*)>& corrupt,
                   const std::string& what) {
  std::string why;
  Expect(CheckAnswer(good, exp, &why), what + ": true answer passes");
  AnalyticsOutput bad = good;
  corrupt(&bad);
  why.clear();
  Expect(!CheckAnswer(bad, exp, &why) && !why.empty(),
         what + ": answer off by one count is rejected");
}

int Run() {
  ntadoc::textgen::CorpusSpec spec = ntadoc::textgen::DatasetC(0.01);
  const auto files = ntadoc::textgen::GenerateCorpus(spec);
  auto corpus = ntadoc::compress::Compress(files);
  if (!corpus.ok()) return 1;
  const Reference ref(files);
  auto exp = ref.Expect(files.size(), corpus->dict, {});
  if (!exp.ok()) return 1;

  AnalyticsOutput out[6];
  for (Task task : ntadoc::tadoc::kAllTasks) {
    ntadoc::nvm::DeviceOptions d;
    d.capacity = 64ull << 20;
    auto dev = ntadoc::nvm::NvmDevice::Create(d);
    if (!dev.ok()) return 1;
    ntadoc::core::NTadocEngine engine(&*corpus, dev->get());
    auto r = engine.Run(task);
    if (!r.ok()) return 1;
    out[static_cast<size_t>(task)] = std::move(*r);
  }
  const auto& wc = out[0];
  const auto& sorted = out[1];
  const auto& tv = out[2];
  const auto& ii = out[3];
  const auto& seq = out[4];
  const auto& ranked = out[5];

  ExpectRejects(wc, *exp, [](AnalyticsOutput* o) {
    o->word_counts[0].second += 1;
  }, "word count");
  ExpectRejects(sorted, *exp, [](AnalyticsOutput* o) {
    o->sorted_words.back().second -= 1;
  }, "sort");
  ExpectRejects(tv, *exp, [](AnalyticsOutput* o) {
    o->term_vectors[0][0].second += 1;
  }, "term vector");
  ExpectRejects(ii, *exp, [](AnalyticsOutput* o) {
    // One posting more: the word also "occurs" in another file.
    auto& files = o->inverted_index.back().second;
    files.push_back(files.back() + 1);
  }, "inverted index");
  ExpectRejects(seq, *exp, [](AnalyticsOutput* o) {
    o->sequence_counts[0].second += 1;
  }, "sequence count");
  ExpectRejects(ranked, *exp, [](AnalyticsOutput* o) {
    o->ranked_index[0].second[0].second += 1;
  }, "ranked inverted index");

  std::string why;
  Expect(CheckWordCountTotal(wc.word_counts, exp->tokens, &why),
         "word-count total: true total passes");
  {
    auto bad = wc.word_counts;
    bad[0].second += 1;
    Expect(!CheckWordCountTotal(bad, exp->tokens, &why),
           "word-count total: total off by one is rejected");
  }

  Expect(CheckRankedMatchesSequence(RankedSumFingerprint(ranked.ranked_index),
                                    Fingerprint(seq), &why),
         "ranked vs sequence: true answers agree");
  {
    auto bad = ranked.ranked_index;
    bad[0].second[0].second += 1;
    Expect(!CheckRankedMatchesSequence(RankedSumFingerprint(bad),
                                       Fingerprint(seq), &why),
           "ranked vs sequence: ranked off by one count is rejected");
    AnalyticsOutput bad_seq = seq;
    bad_seq.sequence_counts.back().second -= 1;
    Expect(!CheckRankedMatchesSequence(
               RankedSumFingerprint(ranked.ranked_index),
               Fingerprint(bad_seq), &why),
           "ranked vs sequence: sequence off by one count is rejected");
  }

  Expect(CheckDecodedText(*corpus, ref, files.size(), &why),
         "decoded text: true container passes");
  {
    // One token more in the last file of the raw text.
    auto edited = files;
    edited.back().content += " wa";
    const Reference edited_ref(edited);
    Expect(!CheckDecodedText(*corpus, edited_ref, files.size(), &why),
           "decoded text: raw text off by one token is rejected");
    Expect(!CheckDecodedText(*corpus, ref, files.size() - 1, &why),
           "decoded text: a missing file is rejected");
  }

  // A reference over a prefix of the files differs from the full one.
  auto prefix = ref.Expect(files.size() - 1, corpus->dict, {});
  Expect(prefix.ok() && !CheckAnswer(wc, *prefix, &why),
         "an answer checked against another generation's reference fails");

  std::printf("%s: %d check(s) misbehaved\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main() { return perfbench::Run(); }
