// Unit tests for the dense directed-link enumeration (net/link_table.hpp):
// ids are positions in the grid's interference table, so they must be
// dense, source-major with destinations ascending, and id()/endpoints()
// must be inverses.
#include <gtest/gtest.h>

#include <utility>

#include "cell/grid.hpp"
#include "net/link_table.hpp"

namespace dca::net {
namespace {

using cell::CellId;
using cell::HexGrid;
using cell::Wrap;

TEST(LinkTable, IdsAreDenseSourceMajorDestinationsAscending) {
  for (const HexGrid& g : {HexGrid(6, 7, 2), HexGrid(14, 14, 2, Wrap::kToroidal),
                           HexGrid(1, 9, 3), HexGrid(3, 4, 40)}) {
    const LinkTable links(g);
    LinkId next = 0;
    for (CellId c = 0; c < g.n_cells(); ++c) {
      for (const CellId d : g.interference(c)) {
        EXPECT_EQ(links.id(c, d), next) << c << " -> " << d;
        ++next;
      }
    }
    EXPECT_EQ(links.n_links(), next);
    EXPECT_FALSE(links.empty());
    for (LinkId lid = 1; lid < links.n_links(); ++lid) {
      EXPECT_LT(links.endpoints(lid - 1), links.endpoints(lid)) << "link " << lid;
    }
  }
}

TEST(LinkTable, IdAndEndpointsAreInverses) {
  const HexGrid g(9, 8, 2);
  const LinkTable links(g);
  for (LinkId lid = 0; lid < links.n_links(); ++lid) {
    const auto [from, to] = links.endpoints(lid);
    EXPECT_EQ(links.id(from, to), lid);
    EXPECT_EQ(links.require(from, to), lid);
  }
  for (CellId c = 0; c < g.n_cells(); ++c) {
    for (const CellId d : g.interference(c)) {
      EXPECT_EQ(links.endpoints(links.id(c, d)), std::make_pair(c, d));
    }
  }
}

TEST(LinkTable, NonLinksHaveNoId) {
  const HexGrid g(6, 6, 1);
  const LinkTable links(g);
  for (CellId a = 0; a < g.n_cells(); ++a) {
    EXPECT_EQ(links.id(a, a), kNoLink) << "self-pair " << a;
    for (CellId b = 0; b < g.n_cells(); ++b) {
      if (a != b && !g.interferes(a, b)) {
        EXPECT_EQ(links.id(a, b), kNoLink) << a << " -> " << b;
      }
    }
  }
  EXPECT_EQ(links.id(-1, 0), kNoLink);
  EXPECT_EQ(links.id(g.n_cells(), 0), kNoLink);
  EXPECT_EQ(links.id(0, -1), kNoLink);
  EXPECT_EQ(links.id(0, g.n_cells()), kNoLink);

  const LinkTable none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.n_links(), 0);
  EXPECT_EQ(none.id(0, 1), kNoLink);
}

TEST(LinkTableDeathTest, RequireAbortsOnANonPair) {
  const HexGrid g(6, 6, 1);
  const LinkTable links(g);
  EXPECT_DEATH((void)links.require(0, 35), "no interference link 0 -> 35");
  EXPECT_DEATH((void)links.require(4, 4), "no interference link 4 -> 4");
}

}  // namespace
}  // namespace dca::net
