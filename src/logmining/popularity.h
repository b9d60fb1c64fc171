// Popularity ranking (Section 3.2).
//
// The paper uses a two-fold system: offline analysis of historical logs
// plus dynamic online tracking of page hits. We implement that as a decayed
// hit counter: offline counts seed the table, online hits add with
// exponential decay so "the recent history" (Algorithm 3) dominates.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "simcore/sim_time.h"
#include "trace/workload.h"

namespace prord::logmining {

struct RankEntry {
  trace::FileId file = trace::kInvalidFile;
  double rank = 0.0;  ///< decayed hit count
};

/// What a caller keeps between top_rank_table rounds over one tracker:
/// the selected rows (the output) and what the next round needs to re-rank
/// only the files that could have changed place. Callers read the rows and
/// leave the scratch as the round left it.
struct TopRankScratch {
  std::vector<RankEntry> rows;
  std::uint64_t state = 0;  ///< tracker state the rows were selected from
  std::uint64_t hits = 0;   ///< the tracker's hit count at that round
  double runner_up = 0.0;   ///< no file outside `rows` has a larger key
};

class PopularityTracker {
 public:
  /// `halflife` controls decay of online hits; 0 disables decay (pure
  /// cumulative counting, which is what the offline pass uses).
  explicit PopularityTracker(sim::SimTime halflife = sim::sec(600.0));

  /// Offline seeding from a historical request stream.
  void seed(std::span<const trace::Request> requests);

  /// Online hit at simulated time `now`.
  void record_hit(trace::FileId file, sim::SimTime now);

  /// Current decayed rank of a file at time `now`.
  double rank(trace::FileId file, sim::SimTime now) const;

  /// Rank table sorted by rank descending (Algorithm 3 step (i)).
  std::vector<RankEntry> rank_table(sim::SimTime now) const;

  /// Fills `out` with the first `k` rows of rank_table(now) — byte-for-byte
  /// the same prefix — without ranking the whole table. Every file keeps a
  /// time-invariant key, log2(value) + stamp/halflife (stored rounded up,
  /// by less than 0.006, and never lowered by record_hit): at a `now` no
  /// earlier than any stamp its rank is 2^(key - now/halflife), so keys
  /// order files as their ranks do. The rows `out` holds on entry — the
  /// previous round's top-k when the caller reuses the buffer — set the
  /// bar: the smallest of their current ranks. At least k files reach it,
  /// so a file whose key lies below the bar's by more than a rounding
  /// margin cannot make the prefix and is dropped with one compare; only
  /// the survivors are ranked exactly and sorted with rank_table's
  /// comparator. The scan counts the survivors at the bar and repeats
  /// without it when fewer than k are (rows from another tracker, or
  /// repeats). Queried at a `now` before some stamp, where decayed()
  /// returns undecayed values, every file is ranked exactly.
  void top_rank_table(sim::SimTime now, std::size_t k,
                      std::vector<RankEntry>& out) const;

  /// The same rows in `scratch.rows`, for a caller that runs rounds over
  /// this tracker and keeps `scratch` between them. When the last round
  /// left at least k rows (a round may ask for fewer rows than the last
  /// one), taken from this tracker's current state (no seed, age, load or
  /// copy since), with at most kHitJournal hits after it, only those rows
  /// and the files hit since are ranked: every other file's key is
  /// unchanged and at most `scratch.runner_up`, and while that lies a
  /// rounding margin below the new k-th row's key, none of them can enter.
  /// Otherwise the round scans as above.
  void top_rank_table(sim::SimTime now, std::size_t k,
                      TopRankScratch& scratch) const;

  /// True when `file` is tracked and lies among the first `n` rows of
  /// rank_table(now), i.e. fewer than `n` files rank before it. Ranks only
  /// the files that could: those whose key reaches the file's own, less a
  /// rounding margin (every file, queried before some stamp or at a tiny
  /// rank).
  bool in_top(trace::FileId file, sim::SimTime now, std::size_t n) const;

  /// Hits a tracker remembers for top_rank_table's incremental rounds.
  static constexpr std::size_t kHitJournal = 4096;

  std::size_t num_files() const noexcept { return present_; }

  /// Multiplies every counter by `keep_fraction` in (0, 1] and drops
  /// entries whose value becomes negligible; `rank`'s own timestamp
  /// decay is unaffected. For callers that snapshot a tracker across
  /// model generations and want bulk forgetting without a timestamp.
  void age(double keep_fraction);

  /// Serializes the decayed counters (values + timestamps).
  void save(std::ostream& out) const;

  /// Restores counters saved with the same halflife configuration. File
  /// ids above trace::kMaxDenseFileId, and counters no tracker can hold
  /// (negative, non-finite, or stamped before time 0), are malformed input.
  /// All-or-nothing: the stream is parsed into a staging table and only
  /// swapped in when it is complete and well-formed, so a false return
  /// (malformed input or halflife mismatch) leaves the tracker exactly as
  /// it was.
  bool load(std::istream& in);

 private:
  struct Entry {
    double value = 0.0;
    sim::SimTime stamp = 0;
    bool present = false;
  };
  /// Names the counters' state for TopRankScratch. A fresh id is drawn on
  /// construction, on copy and by every seed/age/load, so a scratch never
  /// matches another tracker or a state it did not see; record_hit keeps
  /// the id, as it only raises keys and journals the file it hit.
  class StateId {
   public:
    StateId() noexcept : id_(next()) {}
    StateId(const StateId&) noexcept : id_(next()) {}
    StateId& operator=(const StateId&) noexcept {
      id_ = next();
      return *this;
    }
    void renew() noexcept { id_ = next(); }
    std::uint64_t value() const noexcept { return id_; }

   private:
    static std::uint64_t next() noexcept {
      static std::atomic<std::uint64_t> last{0};
      return last.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    std::uint64_t id_;
  };
  double decayed(const Entry& e, sim::SimTime now) const;
  double key_of(const Entry& e) const;
  /// The file's entry, created (present, zeroed) on first use; null for
  /// ids above trace::kMaxDenseFileId, which are not tracked.
  Entry* slot(trace::FileId file);
  void refresh_keys();
  /// True when no stamp lies after `now` (or nothing decays): then a
  /// file's rank is 2^(key - now/halflife), and keys order ranks.
  bool keys_order_ranks(sim::SimTime now) const;
  /// The incremental round; false (rows left for the scan) when the
  /// scratch does not qualify or the runner-up bound is too close.
  bool rerank(sim::SimTime now, std::size_t k, TopRankScratch& s) const;
  void scan(sim::SimTime now, std::size_t k, TopRankScratch& s) const;

  sim::SimTime halflife_;
  double inv_halflife_;  ///< 1/halflife, 0 without decay
  std::vector<Entry> entries_;  ///< indexed by FileId
  std::vector<double> keys_;    ///< key_of per file, -inf when absent
  std::size_t present_ = 0;
  sim::SimTime max_stamp_ = 0;  ///< upper bound on every stamp
  StateId state_;
  std::uint64_t hits_ = 0;
  std::vector<trace::FileId> journal_;  ///< the last kHitJournal hits
};

}  // namespace prord::logmining
