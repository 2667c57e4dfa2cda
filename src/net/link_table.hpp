// Dense link identifiers and near-contiguous sequence buffers for the
// transport hot path.
//
// Every message the protocol layer sends travels a directed (from, to)
// pair inside an interference neighbourhood: nodes talk only to IN(c)
// (send_to_interference) or reply to a message's sender, and interference
// is symmetric, so the full universe of grid links is known the moment the
// grid is. LinkTable enumerates that universe once — LinkId L(c -> d) for
// every d in IN(c), assigned in (from ascending, to ascending) order so
// ids are a pure function of the grid. That order is exactly the grid's
// CSR interference table, so a LinkId is a position in it: id(from, to)
// is offsets[from] plus the index of `to` in the sorted IN(from), found by
// binary search over at most 3r(r+1) entries (18 at r = 2). All per-link
// transport state (FIFO clocks, reliable-transport tx/rx, fault RNG
// streams, latency overrides) then lives in flat vectors indexed by
// LinkId instead of std::map/std::unordered_map keyed by the pair.
//
// SeqRing replaces the std::map<uint64_t, T> retransmit / reorder buffers.
// Sequence numbers on a link are near-contiguous (the tx window is a dense
// prefix [lowest_unacked, next_seq); the rx reorder buffer holds a handful
// of out-of-order frames near next_expected), so a power-of-two ring
// indexed by seq & mask with the owning seq stored in the slot gives O(1)
// insert/find/erase with no tree walk and no per-frame allocation once
// warm. Iteration order never escapes to simulation results — every
// traversal the transport does is by explicit ascending seq.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "cell/grid.hpp"

namespace dca::net {

/// Dense id of a directed interference link. Valid ids are
/// 0..n_links()-1; kNoLink means "not an interference pair".
using LinkId = std::int32_t;
inline constexpr LinkId kNoLink = -1;

/// Immutable directed-link enumeration for one grid. Read-only after
/// construction, so one instance is safely shared across shard threads.
class LinkTable {
 public:
  LinkTable() = default;

  explicit LinkTable(const cell::HexGrid& grid) {
    const auto n = static_cast<std::size_t>(grid.n_cells());
    offsets_.reserve(n + 1);
    offsets_.push_back(0);
    for (std::size_t c = 0; c < n; ++c) {
      const auto in = grid.interference(static_cast<cell::CellId>(c));
      to_.insert(to_.end(), in.begin(), in.end());
      from_.insert(from_.end(), in.size(), static_cast<cell::CellId>(c));
      offsets_.push_back(static_cast<LinkId>(to_.size()));
    }
  }

  /// Number of enumerated directed links (0 for a default-constructed table).
  [[nodiscard]] LinkId n_links() const noexcept {
    return static_cast<LinkId>(to_.size());
  }

  [[nodiscard]] bool empty() const noexcept { return to_.empty(); }

  /// LinkId of from -> to, or kNoLink when the pair is not an interference
  /// link of the grid (or no grid was supplied). O(log |IN(from)|): a
  /// binary search of from's sorted destination span.
  [[nodiscard]] LinkId id(cell::CellId from, cell::CellId to) const noexcept {
    const auto f = static_cast<std::size_t>(from);
    if (from < 0 || f + 1 >= offsets_.size()) return kNoLink;
    const LinkId lo = offsets_[f];
    const LinkId hi = offsets_[f + 1];
    if (lo == hi) return kNoLink;
    // Branch-free lower bound: lookups arrive in no predictable order, so
    // a select per halving beats std::lower_bound's mispredicted branches.
    const cell::CellId* base = to_.data() + lo;
    for (auto len = static_cast<std::size_t>(hi - lo); len > 1;) {
      const std::size_t half = len / 2;
      base = base[half] < to ? base + half : base;
      len -= half;
    }
    base += *base < to;
    const auto pos = static_cast<LinkId>(base - to_.data());
    return pos < hi && *base == to ? pos : kNoLink;
  }

  /// As id(), but aborts on a non-interference pair. The world uses
  /// this: every protocol send is within an interference
  /// neighbourhood, so a miss is a logic bug, not a runtime condition.
  [[nodiscard]] LinkId require(cell::CellId from, cell::CellId to) const noexcept {
    const LinkId lid = id(from, to);
    if (lid == kNoLink) {
      std::fprintf(stderr,
                   "LinkTable: no interference link %d -> %d (protocol sends "
                   "must stay within the interference neighbourhood)\n",
                   from, to);
      std::abort();
    }
    return lid;
  }

  /// Endpoints of a link, inverse of id().
  [[nodiscard]] std::pair<cell::CellId, cell::CellId> endpoints(LinkId lid) const {
    const auto i = static_cast<std::size_t>(lid);
    return {from_[i], to_[i]};
  }

 private:
  // CSR copy of the grid's interference table: source c's links are ids
  // offsets_[c] .. offsets_[c + 1] - 1, with destinations to_[id]
  // ascending and source from_[id] == c.
  std::vector<LinkId> offsets_;     // by source cell, n_cells + 1 entries
  std::vector<cell::CellId> from_;  // by LinkId
  std::vector<cell::CellId> to_;    // by LinkId
};

/// Sparse ring buffer keyed by 64-bit sequence number, for per-link
/// retransmit windows and reorder buffers. Capacity is a power of two;
/// entry seq s lives at slot s & mask with s stored alongside (seq 0 is
/// the empty sentinel — transport sequence numbers start at 1). When two
/// live seqs would collide (window wider than the ring) the ring doubles
/// and re-places its survivors, so correctness never depends on the
/// initial size.
template <typename T>
class SeqRing {
 public:
  SeqRing() = default;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Pointer to the entry for seq, or nullptr when absent.
  [[nodiscard]] T* find(std::uint64_t seq) noexcept {
    if (slots_.empty()) return nullptr;
    Slot& s = slots_[static_cast<std::size_t>(seq) & mask_];
    return s.seq == seq ? &s.value : nullptr;
  }

  [[nodiscard]] bool contains(std::uint64_t seq) const noexcept {
    if (slots_.empty()) return false;
    return slots_[static_cast<std::size_t>(seq) & mask_].seq == seq;
  }

  /// Inserts a default slot for seq (growing past collisions) and returns
  /// its value. seq must not already be present.
  T& insert(std::uint64_t seq) {
    if (slots_.empty()) reserve_pow2(kInitialCapacity);
    while (slots_[static_cast<std::size_t>(seq) & mask_].seq != 0) {
      grow();
    }
    Slot& s = slots_[static_cast<std::size_t>(seq) & mask_];
    s.seq = seq;
    ++size_;
    return s.value;
  }

  /// Removes seq if present; returns whether it was.
  bool erase(std::uint64_t seq) noexcept {
    if (slots_.empty()) return false;
    Slot& s = slots_[static_cast<std::size_t>(seq) & mask_];
    if (s.seq != seq) return false;
    s.seq = 0;
    s.value = T{};
    --size_;
    return true;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 4;

  struct Slot {
    std::uint64_t seq = 0;  // 0 = empty
    T value{};
  };

  void reserve_pow2(std::size_t cap) {
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    reserve_pow2((mask_ + 1) * 2);
    for (Slot& s : old) {
      if (s.seq != 0) {
        // Doubling can still collide if live seqs share low bits; keep
        // doubling until every survivor has a home.
        while (slots_[static_cast<std::size_t>(s.seq) & mask_].seq != 0) {
          std::vector<Slot> again = std::move(slots_);
          reserve_pow2((mask_ + 1) * 2);
          for (Slot& r : again) {
            if (r.seq != 0) slots_[static_cast<std::size_t>(r.seq) & mask_] = std::move(r);
          }
        }
        slots_[static_cast<std::size_t>(s.seq) & mask_] = std::move(s);
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dca::net
