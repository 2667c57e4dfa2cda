#include "cell/grid.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>

namespace dca::cell {

namespace {

// Odd-r offset -> axial conversion: row y, column x.
Axial offset_to_axial(int x, int y) noexcept {
  return Axial{x - (y - (y & 1)) / 2, y};
}

int floor_mod(int v, int m) noexcept { return ((v % m) + m) % m; }

}  // namespace

HexGrid::HexGrid(int rows, int cols, int interference_radius, Wrap wrap)
    : rows_(rows), cols_(cols), radius_(interference_radius), wrap_(wrap) {
  assert(rows_ > 0 && cols_ > 0 && radius_ >= 1);
  // Odd-r offset rows only re-align across the vertical seam when the row
  // count is even; and the torus must be big enough that a cell is never
  // its own neighbour through the wrap.
  assert(wrap_ == Wrap::kBounded ||
         (rows_ % 2 == 0 && rows_ > 2 * radius_ && cols_ > 2 * radius_));

  const auto n = static_cast<std::size_t>(n_cells());
  axial_.reserve(n);
  for (int y = 0; y < rows_; ++y)
    for (int x = 0; x < cols_; ++x) axial_.push_back(offset_to_axial(x, y));

  neighbors_.offsets.reserve(n + 1);
  neighbors_.cells.reserve(6 * n);
  interference_.offsets.reserve(n + 1);
  interference_.cells.reserve(
      n * static_cast<std::size_t>(max_region_size(radius_, n_cells())));
  for (CellId a = 0; a < n_cells(); ++a) {
    auto& nb = neighbors_.cells;
    const auto first = static_cast<std::ptrdiff_t>(nb.size());
    for (const Axial d : kHexDirections) {
      const CellId b = cell_at(axial(a) + d);
      if (b != kNoCell && b != a) nb.push_back(b);
    }
    std::sort(nb.begin() + first, nb.end());
    nb.erase(std::unique(nb.begin() + first, nb.end()), nb.end());
    neighbors_.offsets.push_back(nb.size());

    append_region(a);
    const auto deg = interference_.cells.size() - interference_.offsets.back();
    interference_.offsets.push_back(interference_.cells.size());
    max_degree_ = std::max(max_degree_, static_cast<int>(deg));
  }
  mean_degree_ = static_cast<double>(interference_.cells.size()) /
                 static_cast<double>(n_cells());
}

void HexGrid::append_region(CellId a) {
  // Walk the axial disk of radius r around a row by row: row a.r + dr spans
  // axial q in [a.q + max(-r, -dr - r), a.q + min(r, -dr + r)]. Clipping
  // to the grid's rows and to each row's columns bounds the walk by
  // min(3r(r+1) + 1, n) steps, so a radius larger than the grid costs
  // O(n) per cell. On a torus cell_at wraps; a valid torus (rows, cols >
  // 2r) never clips and never meets a cell twice.
  auto& out = interference_.cells;
  const auto first = static_cast<std::ptrdiff_t>(out.size());
  const Axial pa = axial(a);
  // No two cells are rows + cols apart, so a larger radius adds nothing;
  // capping it keeps the 64-bit bounds below from overflowing.
  const std::int64_t r = std::min<std::int64_t>(
      radius_, std::int64_t{rows_} + std::int64_t{cols_});
  const bool torus = wrap_ == Wrap::kToroidal;
  const std::int64_t dr_lo = torus ? -r : std::max<std::int64_t>(-r, -pa.r);
  const std::int64_t dr_hi = torus ? std::min<std::int64_t>(r, -r + rows_ - 1)
                                   : std::min<std::int64_t>(r, rows_ - 1 - pa.r);
  for (std::int64_t dr = dr_lo; dr <= dr_hi; ++dr) {
    const std::int64_t row = pa.r + dr;
    std::int64_t q_lo = pa.q + std::max(-r, -dr - r);
    std::int64_t q_hi = pa.q + std::min(r, -dr + r);
    if (torus) {
      q_hi = std::min(q_hi, q_lo + cols_ - 1);
    } else {
      // Offset column x = q + floor(row / 2) must lie in [0, cols).
      const std::int64_t shift = (row - (row & 1)) / 2;
      q_lo = std::max(q_lo, -shift);
      q_hi = std::min(q_hi, cols_ - 1 - shift);
    }
    for (std::int64_t q = q_lo; q <= q_hi; ++q) {
      const CellId b = cell_at(
          Axial{static_cast<std::int32_t>(q), static_cast<std::int32_t>(row)});
      if (b != a) out.push_back(b);
    }
  }
  // Bounded rows come out ascending already (row-major, x ascending);
  // wrapped rows restart at column 0 and need the sort.
  if (torus) {
    std::sort(out.begin() + first, out.end());
    out.erase(std::unique(out.begin() + first, out.end()), out.end());
  }
}

CellId HexGrid::cell_at(Axial a) const noexcept {
  int y = a.r;
  // Offset column: x = q + (r - parity(r)) / 2, with floor semantics so
  // negative rows convert correctly (the numerator is always even).
  int x = a.q + (a.r - floor_mod(a.r, 2)) / 2;
  if (wrap_ == Wrap::kToroidal) {
    y = floor_mod(y, rows_);
    x = floor_mod(x, cols_);
    return y * cols_ + x;
  }
  if (y < 0 || y >= rows_ || x < 0 || x >= cols_) return kNoCell;
  return y * cols_ + x;
}

int HexGrid::distance(CellId a, CellId b) const {
  const Axial pa = axial(a);
  const Axial pb = axial(b);
  if (wrap_ == Wrap::kBounded) return hex_distance(pa, pb);
  // Torus: minimum over the nine translated copies of b. A horizontal
  // period of `cols_` shifts axial q by cols_; a vertical period of
  // `rows_` (even) shifts axial (q, r) by (-rows_/2, rows_).
  int best = std::numeric_limits<int>::max();
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      const Axial shifted{pb.q + dx * cols_ - dy * (rows_ / 2), pb.r + dy * rows_};
      best = std::min(best, hex_distance(pa, shifted));
    }
  }
  return best;
}

}  // namespace dca::cell
