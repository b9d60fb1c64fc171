#include "logmining/popularity.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace prord::logmining {

namespace {

constexpr double kNoKey = -std::numeric_limits<double>::infinity();

/// rank_table's order: rank descending, then file ascending — a total
/// order, so every top-k prefix is unique. A closure, so the sorts inline
/// it.
constexpr auto ranks_before = [](const RankEntry& a, const RankEntry& b) {
  return a.rank != b.rank ? a.rank > b.rank : a.file < b.file;
};

/// Sorts rows into ranks_before order in O(n + displaced · (log n + d)):
/// each row out of order is binary-searched into the sorted prefix and
/// the rows it passes shift up. For a round's candidates — last round's
/// rows, still nearly in order, then the few files hit since — that is
/// close to one compare per row.
void sort_nearly_sorted(std::vector<RankEntry>& rows) {
  for (auto it = rows.begin(); it != rows.end(); ++it) {
    if (it == rows.begin() || !ranks_before(*it, *(it - 1))) continue;
    const RankEntry row = *it;
    const auto at = std::upper_bound(rows.begin(), it, row, ranks_before);
    std::move_backward(at, it, it + 1);
    *at = row;
  }
}

/// log2(1 + j/256) for j = 0..256.
const std::array<double, 257> kLog2Steps = [] {
  std::array<double, 257> steps{};
  for (std::size_t j = 0; j < steps.size(); ++j)
    steps[j] = std::log2(1.0 + static_cast<double>(j) / 256.0);
  return steps;
}();

/// How far log2_ceil, and so a stored key, may lie above the exact value:
/// more than log2(1 + 1/256).
constexpr double kKeyRoundUp = 0.0057;

/// An upper bound on log2(v) for a normal v > 0, less than
/// log2(1 + 1/256) ~ 0.0056 above it: the exponent plus log2 of the
/// mantissa rounded up to the next 1/256. A shift and a load — cheaper,
/// on every hit, than a log2 call.
double log2_ceil(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  return static_cast<double>(static_cast<int>(bits >> 52) - 1023) +
         kLog2Steps[((bits >> 44) & 0xff) + 1];
}

/// Rounding margin for comparing keys near `key`: it dwarfs the rounding
/// of the keys and of decayed() (a few ulps of the keys' and
/// now/halflife's magnitude), so a file whose key lies a margin below
/// another's also ranks strictly below it.
double key_margin(double key, double scale) {
  return 0x1p-30 * (4.0 + std::abs(key) + std::abs(scale));
}

/// Ranks below this are subnormal or nearly so: they lose precision, tie
/// at zero, and no longer follow keys.
constexpr double kTinyRank = 0x1p-1000;

/// The key of a file ranked `rank` at a `now` past its stamp
/// (scale = now/halflife), with tiny ranks rounded up to kTinyRank: an
/// upper bound in every case.
double key_at(double rank, double scale) {
  return std::log2(std::max(rank, kTinyRank)) + scale;
}

}  // namespace

PopularityTracker::PopularityTracker(sim::SimTime halflife)
    : halflife_(halflife),
      inv_halflife_(halflife > 0 ? 1.0 / static_cast<double>(halflife) : 0.0),
      journal_(kHitJournal) {
  if (halflife < 0)
    throw std::invalid_argument("PopularityTracker: negative halflife");
}

double PopularityTracker::decayed(const Entry& e, sim::SimTime now) const {
  if (halflife_ == 0 || now <= e.stamp) return e.value;
  const double dt = static_cast<double>(now - e.stamp);
  return e.value * std::exp2(-dt / static_cast<double>(halflife_));
}

double PopularityTracker::key_of(const Entry& e) const {
  const double log2_value = e.value >= std::numeric_limits<double>::min()
                                ? log2_ceil(e.value)
                                : std::log2(e.value);  // 0 (-inf) or tiny
  return log2_value + static_cast<double>(e.stamp) * inv_halflife_;
}

PopularityTracker::Entry* PopularityTracker::slot(trace::FileId file) {
  if (file > trace::kMaxDenseFileId) return nullptr;
  if (file >= entries_.size()) {
    entries_.resize(std::size_t{file} + 1);
    keys_.resize(std::size_t{file} + 1, kNoKey);
  }
  Entry& e = entries_[file];
  if (!e.present) {
    e = Entry{0.0, 0, true};
    ++present_;
  }
  return &e;
}

void PopularityTracker::refresh_keys() {
  for (std::size_t f = 0; f < entries_.size(); ++f)
    keys_[f] = entries_[f].present ? key_of(entries_[f]) : kNoKey;
}

void PopularityTracker::seed(std::span<const trace::Request> requests) {
  for (const auto& req : requests)
    if (Entry* e = slot(req.file)) e->value += 1.0;
  refresh_keys();
  state_.renew();
}

void PopularityTracker::age(double keep_fraction) {
  if (keep_fraction <= 0.0 || keep_fraction > 1.0)
    throw std::invalid_argument("PopularityTracker: keep_fraction in (0, 1]");
  for (Entry& e : entries_) {
    if (!e.present) continue;
    e.value *= keep_fraction;
    if (e.value < 1e-6) {
      e = Entry{};
      --present_;
    }
  }
  refresh_keys();
  state_.renew();
}

void PopularityTracker::record_hit(trace::FileId file, sim::SimTime now) {
  Entry* e = slot(file);
  if (!e) return;
  e->value = decayed(*e, now) + 1.0;
  e->stamp = std::max(e->stamp, now);
  max_stamp_ = std::max(max_stamp_, e->stamp);
  // The exact key only grows with a hit; max() keeps a stored key that
  // was rounded up further from dropping.
  keys_[file] = std::max(keys_[file], key_of(*e));
  journal_[hits_++ % kHitJournal] = file;
}

double PopularityTracker::rank(trace::FileId file, sim::SimTime now) const {
  return file < entries_.size() && entries_[file].present
             ? decayed(entries_[file], now)
             : 0.0;
}

void PopularityTracker::save(std::ostream& out) const {
  out << "popularity " << halflife_ << ' ' << present_ << '\n';
  // Decayed values round-trip bit-exactly as their IEEE-754 bit patterns.
  for (std::size_t f = 0; f < entries_.size(); ++f)
    if (entries_[f].present)
      out << f << ' ' << std::bit_cast<std::uint64_t>(entries_[f].value)
          << ' ' << entries_[f].stamp << '\n';
  out << "end\n";
}

bool PopularityTracker::load(std::istream& in) {
  std::string tag;
  sim::SimTime halflife = 0;
  std::size_t n = 0;
  if (!(in >> tag >> halflife >> n) || tag != "popularity" ||
      halflife != halflife_)
    return false;
  // Stage the rows: every early return below must leave the live counters
  // untouched (the all-or-nothing contract in the header), and the dense
  // table is sized only from ids that passed the ceiling check.
  struct Row {
    trace::FileId file;
    Entry e;
  };
  std::vector<Row> rows;
  rows.reserve(std::min<std::size_t>(n, 1u << 20));  // corrupt-count guard
  std::size_t size = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Row row{0, Entry{0.0, 0, true}};
    std::uint64_t value_bits = 0;
    if (!(in >> row.file >> value_bits >> row.e.stamp)) return false;
    row.e.value = std::bit_cast<double>(value_bits);
    if (row.file > trace::kMaxDenseFileId || !std::isfinite(row.e.value) ||
        row.e.value < 0.0 || row.e.stamp < 0)
      return false;
    size = std::max(size, std::size_t{row.file} + 1);
    rows.push_back(row);
  }
  if (!(in >> tag) || tag != "end") return false;

  std::vector<Entry> entries(size);
  std::size_t present = 0;
  sim::SimTime max_stamp = 0;
  for (const Row& row : rows) {
    if (entries[row.file].present) continue;  // first row of an id wins
    entries[row.file] = row.e;
    ++present;
    max_stamp = std::max(max_stamp, row.e.stamp);
  }
  entries_ = std::move(entries);
  keys_.assign(size, kNoKey);
  present_ = present;
  max_stamp_ = max_stamp;
  refresh_keys();
  state_.renew();
  return true;
}

std::vector<RankEntry> PopularityTracker::rank_table(sim::SimTime now) const {
  std::vector<RankEntry> table;
  table.reserve(present_);
  for (std::size_t f = 0; f < entries_.size(); ++f)
    if (entries_[f].present)
      table.push_back(RankEntry{static_cast<trace::FileId>(f),
                                decayed(entries_[f], now)});
  std::sort(table.begin(), table.end(), ranks_before);
  return table;
}

void PopularityTracker::top_rank_table(sim::SimTime now, std::size_t k,
                                       std::vector<RankEntry>& out) const {
  TopRankScratch scratch;  // names no state: the round scans
  scratch.rows.swap(out);
  top_rank_table(now, k, scratch);
  out.swap(scratch.rows);
}

void PopularityTracker::top_rank_table(sim::SimTime now, std::size_t k,
                                       TopRankScratch& scratch) const {
  if (k == 0) {
    scratch.state = 0;
    scratch.rows.clear();
    return;
  }
  if (!rerank(now, k, scratch)) scan(now, k, scratch);
}

bool PopularityTracker::in_top(trace::FileId file, sim::SimTime now,
                               std::size_t n) const {
  if (n == 0 || file >= entries_.size() || !entries_[file].present)
    return false;
  if (present_ <= n) return true;
  const RankEntry row{file, decayed(entries_[file], now)};
  // A file ranking before `row` ranks at least as high, so its key reaches
  // row's, less a margin (the scan's bar, set at row's rank).
  double threshold = kNoKey;
  if (keys_order_ranks(now) && row.rank > kTinyRank) {
    const double scale = static_cast<double>(now) * inv_halflife_;
    const double key = key_at(row.rank, scale);
    threshold = key - key_margin(key, scale);
  }
  std::size_t before = 0;
  for (std::size_t f = 0; f < keys_.size(); ++f) {
    if (keys_[f] < threshold || !entries_[f].present) continue;
    const RankEntry other{static_cast<trace::FileId>(f),
                          decayed(entries_[f], now)};
    if (ranks_before(other, row) && ++before >= n) return false;
  }
  return true;
}

bool PopularityTracker::keys_order_ranks(sim::SimTime now) const {
  return halflife_ == 0 || now >= max_stamp_;
}

bool PopularityTracker::rerank(sim::SimTime now, std::size_t k,
                               TopRankScratch& s) const {
  std::vector<RankEntry>& rows = s.rows;
  if (s.state != state_.value() || rows.size() < k ||
      hits_ - s.hits > kHitJournal || !keys_order_ranks(now))
    return false;
  // Candidates: last round's rows and every file hit since (repeats and
  // all); no other file's key has moved.
  for (std::uint64_t h = s.hits; h < hits_; ++h)
    rows.push_back(RankEntry{journal_[h % kHitJournal], 0.0});
  for (RankEntry& row : rows) row.rank = decayed(entries_[row.file], now);
  sort_nearly_sorted(rows);
  rows.erase(std::unique(rows.begin(), rows.end(),
                         [](const RankEntry& a, const RankEntry& b) {
                           return a.file == b.file;
                         }),
             rows.end());
  if (rows.size() < k) return false;  // rows not as a round left them
  // Every other file ranks below the k-th row while its key, at most
  // runner_up, lies a margin below the k-th row's.
  const double scale = static_cast<double>(now) * inv_halflife_;
  const double kth = key_at(rows[k - 1].rank, scale);
  if (!(rows[k - 1].rank > kTinyRank &&
        s.runner_up < kth - key_margin(kth, scale)))
    return false;
  for (std::size_t i = k; i < rows.size(); ++i)
    s.runner_up = std::max(s.runner_up, key_at(rows[i].rank, scale));
  rows.resize(k);
  s.hits = hits_;
  return true;
}

void PopularityTracker::scan(sim::SimTime now, std::size_t k,
                             TopRankScratch& s) const {
  std::vector<RankEntry>& out = s.rows;
  const bool ordered = keys_order_ranks(now);
  const double scale = static_cast<double>(now) * inv_halflife_;
  // The bar: the smallest current rank among the rows handed in, when keys
  // order ranks and the rows are files of this tracker.
  double bar = std::numeric_limits<double>::infinity();
  bool barred = ordered && out.size() >= k && present_ >= k;
  for (std::size_t i = 0; barred && i < out.size(); ++i) {
    const trace::FileId f = out[i].file;
    barred = f < entries_.size() && entries_[f].present;
    if (barred) bar = std::min(bar, decayed(entries_[f], now));
  }
  double threshold = kNoKey;
  if (barred && bar > kTinyRank) {
    const double bar_key = key_at(bar, scale);
    threshold = bar_key - key_margin(bar_key, scale);
  }

  // One compare per file: gather the files whose key reaches `threshold`
  // (as {file, key}), rank them exactly, and count those at the bar. When
  // keys order ranks, the threshold also rises as the scan goes: whenever
  // 2k files are held, the k-th largest key among them, less the keys'
  // rounding up and the margin, bounds the k-th key from below.
  const std::size_t cap = k > SIZE_MAX / 2 ? SIZE_MAX : 2 * k;
  const auto by_key = [](const RankEntry& a, const RankEntry& b) {
    return a.rank > b.rank;
  };
  const auto gather = [&] {
    out.clear();
    std::size_t compact_at = ordered ? cap : SIZE_MAX;
    for (std::size_t f = 0; f < keys_.size(); ++f) {
      if (keys_[f] < threshold || !entries_[f].present) continue;
      out.push_back(RankEntry{static_cast<trace::FileId>(f), keys_[f]});
      if (out.size() < compact_at || out.size() <= k) continue;
      std::nth_element(out.begin(),
                       out.begin() + static_cast<std::ptrdiff_t>(k - 1),
                       out.end(), by_key);
      const double kth = out[k - 1].rank - kKeyRoundUp;
      if (kth <= key_at(kTinyRank, scale)) {
        compact_at = SIZE_MAX;  // tiny ranks: keys no longer order them
        continue;
      }
      threshold = std::max(threshold, kth - key_margin(kth, scale));
      std::erase_if(out, [&](const RankEntry& row) {
        return row.rank < threshold;
      });
      compact_at = std::max(cap, 2 * out.size());
    }
    for (RankEntry& row : out) row.rank = decayed(entries_[row.file], now);
    return static_cast<std::size_t>(
        std::count_if(out.begin(), out.end(),
                      [bar](const RankEntry& row) { return row.rank >= bar; }));
  };
  // Fewer than k files at the bar: the rows were no selection of k
  // distinct files (another tracker's, or repeats).
  const bool used_bar = threshold != kNoKey;
  if (gather() < k && used_bar) {
    threshold = kNoKey;
    gather();
  }

  // What a next round may skip: the files under the threshold, and those
  // gathered but not selected. Before some stamp, ranks say nothing of
  // keys, and nothing may be skipped.
  s.runner_up = ordered ? threshold : std::numeric_limits<double>::infinity();
  if (out.size() > k) {
    std::nth_element(out.begin(),
                     out.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     out.end(), ranks_before);
    for (std::size_t i = k; i < out.size(); ++i)
      s.runner_up = std::max(s.runner_up, key_at(out[i].rank, scale));
    out.resize(k);
  }
  std::sort(out.begin(), out.end(), ranks_before);
  s.state = state_.value();
  s.hits = hits_;
}

}  // namespace prord::logmining
