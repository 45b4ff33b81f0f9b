#include "regcube/core/query.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <set>

#include "gtest/gtest.h"
#include "regcube/core/mo_cubing.h"
#include "test_util.h"

namespace regcube {
namespace {

using testing_util::ExpectIsbNear;
using testing_util::MakeSmallWorkload;
using testing_util::SmallWorkload;

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload_ = MakeSmallWorkload(2, 3, 3, 120, 111);
    policy_ = std::make_unique<ExceptionPolicy>(0.02);
    MoCubingOptions options;
    options.policy = *policy_;
    auto cube = ComputeMoCubing(workload_.schema, workload_.tuples, options);
    ASSERT_TRUE(cube.ok());
    cube_ = std::make_unique<RegressionCube>(std::move(cube).value());
    view_ = std::make_unique<CubeView>(*cube_, *policy_);
  }

  SmallWorkload workload_;
  std::unique_ptr<ExceptionPolicy> policy_;
  std::unique_ptr<RegressionCube> cube_;
  std::unique_ptr<CubeView> view_;
};

TEST_F(QueryTest, GetCellFindsRetainedLayers) {
  const CuboidLattice& lattice = cube_->lattice();
  ASSERT_FALSE(cube_->o_layer().empty());
  const auto& [o_key, o_isb] = *cube_->o_layer().begin();
  auto got = view_->GetCell(lattice.o_layer_id(), o_key);
  ASSERT_TRUE(got.ok());
  ExpectIsbNear(o_isb, *got);

  const auto& [m_key, m_isb] = *cube_->m_layer().begin();
  got = view_->GetCell(lattice.m_layer_id(), m_key);
  ASSERT_TRUE(got.ok());
  ExpectIsbNear(m_isb, *got);
}

TEST_F(QueryTest, GetCellMissReturnsNotFound) {
  const CuboidLattice& lattice = cube_->lattice();
  CellKey bogus(2);
  bogus.set(0, 9999);
  bogus.set(1, 9999);
  EXPECT_EQ(view_->GetCell(lattice.o_layer_id(), bogus).status().code(),
            StatusCode::kNotFound);
}

TEST_F(QueryTest, OnTheFlyMatchesBruteForce) {
  const CuboidLattice& lattice = cube_->lattice();
  // Pick an intermediate cuboid and compare every cell.
  CuboidId mid = -1;
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    if (c != lattice.o_layer_id() && c != lattice.m_layer_id()) {
      mid = c;
      break;
    }
  }
  ASSERT_GE(mid, 0);
  CellMap expected = ComputeCuboidBruteForce(lattice, workload_.tuples, mid);
  for (const auto& [key, isb] : expected) {
    auto got = view_->ComputeCellOnTheFly(mid, key);
    ASSERT_TRUE(got.ok());
    ExpectIsbNear(isb, *got, 1e-8);
  }
  CellKey bogus(2);
  bogus.set(0, 8);
  bogus.set(1, 8);
  EXPECT_FALSE(view_->ComputeCellOnTheFly(mid, bogus).ok());
}

TEST_F(QueryTest, ExceptionsAtMatchesPolicy) {
  const CuboidLattice& lattice = cube_->lattice();
  for (CuboidId c : cube_->exceptions().Cuboids()) {
    auto list = view_->ExceptionsAt(c);
    const CellMap* stored = cube_->exceptions().CellsOf(c);
    ASSERT_NE(stored, nullptr);
    EXPECT_EQ(list.size(), stored->size());
    for (const CellResult& cell : list) {
      EXPECT_TRUE(cell.is_exception);
      EXPECT_GE(std::fabs(cell.isb.slope), 0.02);
      EXPECT_EQ(cell.cuboid, c);
    }
  }
  (void)lattice;
}

TEST_F(QueryTest, DrillDownReturnsOnlyExceptionDescendants) {
  const CuboidLattice& lattice = cube_->lattice();
  // Drill from each o-layer exception.
  for (const auto& [key, isb] : cube_->o_layer()) {
    if (std::fabs(isb.slope) < 0.02) continue;
    for (const CellResult& child :
         view_->DrillDown(lattice.o_layer_id(), key)) {
      EXPECT_TRUE(lattice.KeyIsDescendant(child.key, child.cuboid, key,
                                          lattice.o_layer_id()));
      EXPECT_GE(std::fabs(child.isb.slope), 0.02);
    }
  }
}

TEST_F(QueryTest, SupportersAreClosedUnderDrilling) {
  const CuboidLattice& lattice = cube_->lattice();
  // Strongest o-layer exception must have a supporters tree that includes
  // everything DrillDown finds at the first level.
  const CellKey* best_key = nullptr;
  double best = -1.0;
  for (const auto& [key, isb] : cube_->o_layer()) {
    if (std::fabs(isb.slope) > best) {
      best = std::fabs(isb.slope);
      best_key = &key;
    }
  }
  ASSERT_NE(best_key, nullptr);
  auto direct = view_->DrillDown(lattice.o_layer_id(), *best_key);
  auto closure = view_->ExceptionSupporters(lattice.o_layer_id(), *best_key);
  EXPECT_GE(closure.size(), direct.size());
}

TEST_F(QueryTest, TopExceptionsSortedBySlopeMagnitude) {
  auto top = view_->TopExceptions(10);
  EXPECT_LE(top.size(), 10u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(std::fabs(top[i - 1].isb.slope), std::fabs(top[i].isb.slope));
  }
}

TEST_F(QueryTest, RenderCellIsHumanReadable) {
  auto top = view_->TopExceptions(1);
  ASSERT_FALSE(top.empty());
  std::string rendered = view_->RenderCell(top[0]);
  EXPECT_NE(rendered.find("slope="), std::string::npos);
  EXPECT_NE(rendered.find("EXCEPTION"), std::string::npos);
}

// ---- Answer order --------------------------------------------------------

/// Copies `src` into a map filled in the given key order after reserving
/// `buckets`, so two copies of one cell set iterate in different orders.
CellMap Refill(const CellMap& src, bool reversed, std::size_t buckets) {
  std::vector<std::pair<CellKey, Isb>> rows(src.begin(), src.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return CanonicalKeyLess(a.first, b.first);
  });
  if (reversed) std::reverse(rows.begin(), rows.end());
  CellMap out;
  out.reserve(buckets);
  for (const auto& [key, isb] : rows) out.emplace(key, isb);
  return out;
}

RegressionCube RefillCube(const RegressionCube& src, bool reversed,
                          std::size_t buckets) {
  RegressionCube cube(src.schema_ptr());
  cube.mutable_m_layer() = Refill(src.m_layer(), reversed, buckets);
  cube.mutable_o_layer() = Refill(src.o_layer(), reversed, buckets);
  for (CuboidId c : src.exceptions().Cuboids()) {
    cube.mutable_exceptions().Adopt(
        c, Refill(*src.exceptions().CellsOf(c), reversed, buckets));
  }
  return cube;
}

bool SameCells(const std::vector<CellResult>& a,
               const std::vector<CellResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].cuboid != b[i].cuboid || !(a[i].key == b[i].key) ||
        a[i].isb.interval.tb != b[i].isb.interval.tb ||
        a[i].isb.interval.te != b[i].isb.interval.te ||
        std::bit_cast<std::uint64_t>(a[i].isb.slope) !=
            std::bit_cast<std::uint64_t>(b[i].isb.slope) ||
        std::bit_cast<std::uint64_t>(a[i].isb.base) !=
            std::bit_cast<std::uint64_t>(b[i].isb.base)) {
      return false;
    }
  }
  return true;
}

TEST_F(QueryTest, AnswerOrderDoesNotDependOnInsertOrder) {
  // Tie half of the exception cells at one |slope| above every other, with
  // both signs, so any TopExceptions cut inside that group is a tie.
  RegressionCube tied = cube_->Clone();
  std::size_t tie_count = 0;
  for (CuboidId c : cube_->exceptions().Cuboids()) {
    for (const auto& [key, isb] : *cube_->exceptions().CellsOf(c)) {
      if (tie_count++ % 2 != 0) continue;
      Isb patched = isb;
      patched.slope = (tie_count % 4 == 1) ? 50.0 : -50.0;
      tied.mutable_exceptions().Insert(c, key, patched);
    }
  }
  ASSERT_GE(tie_count, 8u);

  const RegressionCube a = RefillCube(tied, /*reversed=*/false, 16);
  const RegressionCube b = RefillCube(tied, /*reversed=*/true, 4096);
  // The two cubes must really iterate differently, or the test is vacuous.
  bool iteration_differs = false;
  for (CuboidId c : a.exceptions().Cuboids()) {
    const CellMap& ma = *a.exceptions().CellsOf(c);
    const CellMap& mb = *b.exceptions().CellsOf(c);
    iteration_differs |= !std::equal(
        ma.begin(), ma.end(), mb.begin(),
        [](const auto& x, const auto& y) { return x.first == y.first; });
  }
  ASSERT_TRUE(iteration_differs);

  const CubeView va(a, *policy_), vb(b, *policy_);
  const CuboidLattice& lattice = a.lattice();
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, tie_count / 4,
                        tie_count}) {
    EXPECT_TRUE(SameCells(va.TopExceptions(n), vb.TopExceptions(n)))
        << "n=" << n;
  }
  // The cut at 3 falls inside the tie group: every pick has |slope| 50.
  for (const CellResult& cell : va.TopExceptions(3)) {
    EXPECT_EQ(std::fabs(cell.isb.slope), 50.0);
  }
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    EXPECT_TRUE(SameCells(va.ExceptionsAt(c), vb.ExceptionsAt(c)))
        << "cuboid " << c;
  }
  for (const auto& [key, isb] : a.o_layer()) {
    const CuboidId o = lattice.o_layer_id();
    EXPECT_TRUE(SameCells(va.DrillDown(o, key), vb.DrillDown(o, key)));
    EXPECT_TRUE(SameCells(va.ExceptionSupporters(o, key),
                          vb.ExceptionSupporters(o, key)));
  }
  for (CuboidId c : a.exceptions().Cuboids()) {
    for (const auto& [key, isb] : *a.exceptions().CellsOf(c)) {
      EXPECT_TRUE(SameCells(va.DrillDown(c, key), vb.DrillDown(c, key)));
    }
  }
}

TEST_F(QueryTest, OnTheFlyDoesNotDependOnInsertOrder) {
  // A floating-point sum depends on its order. On-the-fly cells sum their
  // m-layer members in canonical key order, so a cube whose m-layer map
  // was filled the other way round answers every cell in the same bits.
  const RegressionCube a = RefillCube(*cube_, /*reversed=*/false, 16);
  const RegressionCube b = RefillCube(*cube_, /*reversed=*/true, 4096);
  const CubeView va(a, *policy_), vb(b, *policy_);
  const CuboidLattice& lattice = a.lattice();
  std::size_t checked = 0;
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    for (const auto& [key, isb] :
         ComputeCuboidBruteForce(lattice, workload_.tuples, c)) {
      auto x = va.ComputeCellOnTheFly(c, key);
      auto y = vb.ComputeCellOnTheFly(c, key);
      ASSERT_TRUE(x.ok() && y.ok()) << key.ToString();
      EXPECT_TRUE(SameCells({CellResult{c, key, *x, false}},
                            {CellResult{c, key, *y, false}}))
          << lattice.CuboidName(c) << " " << key.ToString();
      ++checked;
    }
  }
  EXPECT_GT(checked, 500u);
}

TEST_F(QueryTest, SupportersMatchExactKeyBreadthFirstWalk) {
  // Oracle: breadth-first over DrillDown, deduped on the exact (cuboid, key)
  // pair in an ordered set — no hashing anywhere.
  auto ref_less = [](const CellRef& x, const CellRef& y) {
    if (x.cuboid != y.cuboid) return x.cuboid < y.cuboid;
    return CanonicalKeyLess(x.key, y.key);
  };
  auto walk = [&](CuboidId cuboid, const CellKey& key) {
    std::vector<CellResult> out;
    std::set<CellRef, decltype(ref_less)> seen(ref_less);
    std::deque<CellRef> frontier{CellRef{cuboid, key}};
    while (!frontier.empty()) {
      const CellRef cur = frontier.front();
      frontier.pop_front();
      for (const CellResult& child : view_->DrillDown(cur.cuboid, cur.key)) {
        if (!seen.insert(CellRef{child.cuboid, child.key}).second) continue;
        out.push_back(child);
        frontier.push_back(CellRef{child.cuboid, child.key});
      }
    }
    return out;
  };
  const CuboidLattice& lattice = cube_->lattice();
  std::size_t walked = 0;
  for (const auto& [key, isb] : cube_->o_layer()) {
    auto want = walk(lattice.o_layer_id(), key);
    walked += want.size();
    EXPECT_TRUE(SameCells(
        want, view_->ExceptionSupporters(lattice.o_layer_id(), key)));
  }
  for (CuboidId c : cube_->exceptions().Cuboids()) {
    for (const auto& [key, isb] : *cube_->exceptions().CellsOf(c)) {
      EXPECT_TRUE(SameCells(walk(c, key), view_->ExceptionSupporters(c, key)));
    }
  }
  EXPECT_GT(walked, 0u);
}

TEST(QueryOrderTest, ExceptionsAtIsCanonicalForNarrowAndWideKeys) {
  // Keys inside the schema sort through the packed-integer path; value ids
  // outside their level's cardinality fall back to comparing keys. Both
  // must give canonical key order, whatever order the cells were inserted
  // in.
  const auto workload = testing_util::MakeSmallWorkload(3, 2, 3, 20, 5);
  const ExceptionPolicy policy(0.02);
  RegressionCube cube(workload.schema);
  const CuboidLattice& lattice = cube.lattice();
  CuboidId narrow = -1, wide = -1;
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    if (c == lattice.m_layer_id() || c == lattice.o_layer_id()) continue;
    (narrow < 0 ? narrow : wide) = c;
    if (wide >= 0) break;
  }
  ASSERT_GE(wide, 0);
  Pcg32 rng(23);
  for (int i = 0; i < 500; ++i) {
    CellKey small(3), big(3);
    for (int d = 0; d < 3; ++d) {
      const int level = lattice.spec(narrow)[static_cast<size_t>(d)];
      small.set(d, level == 0 ? kStarValue
                              : rng.Next() % static_cast<std::uint32_t>(
                                    workload.schema->dim(d)
                                        .hierarchy()
                                        .Cardinality(level)));
      big.set(d, rng.Next() % (1u << 31));
    }
    const Isb isb{{0, 3}, 1.0, (i % 2 ? 1.0 : -1.0) * (1 + i % 7)};
    cube.mutable_exceptions().Insert(narrow, small, isb);
    cube.mutable_exceptions().Insert(wide, big, isb);
  }
  const RegressionCube a = RefillCube(cube, /*reversed=*/false, 16);
  const RegressionCube b = RefillCube(cube, /*reversed=*/true, 8192);
  const CubeView va(a, policy), vb(b, policy);
  for (CuboidId c : {narrow, wide}) {
    const auto list = va.ExceptionsAt(c);
    EXPECT_EQ(list.size(), a.exceptions().CellsOf(c)->size());
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end(),
                               [](const CellResult& x, const CellResult& y) {
                                 return CanonicalKeyLess(x.key, y.key);
                               }))
        << "cuboid " << c;
    EXPECT_TRUE(SameCells(list, vb.ExceptionsAt(c))) << "cuboid " << c;
  }
  EXPECT_TRUE(SameCells(va.TopExceptions(50), vb.TopExceptions(50)));
}

}  // namespace
}  // namespace regcube
