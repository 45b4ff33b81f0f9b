#include "regcube/cube/dimension.h"

#include <algorithm>
#include <memory>

#include "gtest/gtest.h"
#include "regcube/cube/cell.h"

namespace regcube {
namespace {

TEST(FanoutHierarchyTest, CardinalityGrowsGeometrically) {
  FanoutHierarchy h(3, 10);
  EXPECT_EQ(h.num_levels(), 3);
  EXPECT_EQ(h.Cardinality(1), 10);
  EXPECT_EQ(h.Cardinality(2), 100);
  EXPECT_EQ(h.Cardinality(3), 1000);
}

TEST(FanoutHierarchyTest, ParentIsDivision) {
  FanoutHierarchy h(3, 10);
  EXPECT_EQ(h.Parent(3, 987), 98u);
  EXPECT_EQ(h.Parent(2, 98), 9u);
}

TEST(FanoutHierarchyTest, AncestorComposesParents) {
  FanoutHierarchy h(4, 5);
  EXPECT_EQ(h.Ancestor(4, 624, 4), 624u);
  EXPECT_EQ(h.Ancestor(4, 624, 3), 124u);
  EXPECT_EQ(h.Ancestor(4, 624, 1), 4u);
}

TEST(FanoutHierarchyTest, FanoutOne) {
  FanoutHierarchy h(3, 1);
  EXPECT_EQ(h.Cardinality(3), 1);
  EXPECT_EQ(h.Ancestor(3, 0, 1), 0u);
}

TEST(ExplicitHierarchyTest, CreateValidatesParentIds) {
  // Level 1: 2 cities; level 2: 3 districts.
  auto ok = ExplicitHierarchy::Create(2, {{0, 0, 1}});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->num_levels(), 2);
  EXPECT_EQ(ok->Cardinality(1), 2);
  EXPECT_EQ(ok->Cardinality(2), 3);
  EXPECT_EQ(ok->Parent(2, 2), 1u);

  auto bad = ExplicitHierarchy::Create(2, {{0, 2}});  // parent 2 >= 2
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(ExplicitHierarchy::Create(0, {}).ok());
  EXPECT_FALSE(ExplicitHierarchy::Create(2, {{}}).ok());  // empty level
}

TEST(ExplicitHierarchyTest, ThreeLevelAncestors) {
  // 2 cities; 3 districts (0,0 -> city0, 1 -> city1); 5 blocks.
  auto h = ExplicitHierarchy::Create(2, {{0, 0, 1}, {0, 1, 1, 2, 2}});
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->Ancestor(3, 4, 2), 2u);
  EXPECT_EQ(h->Ancestor(3, 4, 1), 1u);
  EXPECT_EQ(h->Ancestor(3, 0, 1), 0u);
}

TEST(ExplicitHierarchyTest, LabelsUsedWhenProvided) {
  auto h = ExplicitHierarchy::Create(
      2, {{0, 1}}, {{"north", "south"}, {"n-block", "s-block"}});
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->Label(1, 0), "north");
  EXPECT_EQ(h->Label(2, 1), "s-block");
}

TEST(ExplicitHierarchyTest, DefaultLabelFallback) {
  auto h = ExplicitHierarchy::Create(2, {{0, 1}});
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->Label(1, 0), "L1:0");
}

TEST(ExplicitHierarchyTest, LabelCountMustMatchLevels) {
  EXPECT_FALSE(ExplicitHierarchy::Create(2, {{0, 1}}, {{"a", "b"}}).ok());
}

// ---- Children ------------------------------------------------------------

/// Children agrees with Parent over every in-range value: each list is
/// ascending, each child's Parent is the value asked about, and the lists
/// partition the level below. The deepest level has no children.
void ExpectChildrenInvertParent(const ConceptHierarchy& h) {
  for (int level = 1; level < h.num_levels(); ++level) {
    std::int64_t listed = 0;
    for (ValueId v = 0; v < h.Cardinality(level); ++v) {
      const std::vector<ValueId> children = h.Children(level, v);
      EXPECT_TRUE(std::is_sorted(children.begin(), children.end()));
      EXPECT_EQ(std::adjacent_find(children.begin(), children.end()),
                children.end());
      for (ValueId c : children) {
        ASSERT_LT(c, h.Cardinality(level + 1));
        EXPECT_EQ(h.Parent(level + 1, c), v) << "level " << level;
      }
      listed += static_cast<std::int64_t>(children.size());
    }
    EXPECT_EQ(listed, h.Cardinality(level + 1)) << "level " << level;
  }
  for (ValueId v = 0; v < h.Cardinality(h.num_levels()); ++v) {
    EXPECT_TRUE(h.Children(h.num_levels(), v).empty());
  }
}

TEST(FanoutHierarchyTest, ChildrenInvertParent) {
  ExpectChildrenInvertParent(FanoutHierarchy(3, 4));
  ExpectChildrenInvertParent(FanoutHierarchy(3, 1));
  const FanoutHierarchy h(3, 10);
  EXPECT_EQ(h.Children(2, 98),
            (std::vector<ValueId>{980, 981, 982, 983, 984, 985, 986, 987, 988,
                                  989}));
}

TEST(FanoutHierarchyTest, ChildrenOfWideValuesAreArithmeticAndClipped) {
  // Values beyond a level's cardinality (a key mapper's) have the children
  // v*f .. v*f+f-1, computed in 64 bits, but never kStarValue or beyond.
  const FanoutHierarchy h(2, 10);
  EXPECT_EQ(h.Children(1, 12),
            (std::vector<ValueId>{120, 121, 122, 123, 124, 125, 126, 127, 128,
                                  129}));
  const ValueId last = kStarValue / 10;  // 429496729: children up to ...299
  const std::vector<ValueId> clipped = h.Children(1, last);
  ASSERT_EQ(clipped.size(), 5u);
  EXPECT_EQ(clipped.front(), last * 10);
  EXPECT_EQ(clipped.back(), kStarValue - 1);
  EXPECT_TRUE(h.Children(1, last + 1).empty());
  EXPECT_TRUE(h.Children(1, kStarValue).empty());
  EXPECT_TRUE(FanoutHierarchy(2, 1).Children(1, kStarValue).empty());
  EXPECT_EQ(FanoutHierarchy(2, 1).Children(1, kStarValue - 1),
            (std::vector<ValueId>{kStarValue - 1}));
  // Their Parent is v / f in every build, so Children inverts it.
  EXPECT_EQ(h.Parent(2, 129), 12u);
  EXPECT_EQ(h.Parent(2, kStarValue - 1), last);
}

TEST(ExplicitHierarchyTest, ChildrenInvertParentWhenNotContiguous) {
  // Districts interleave their cities, blocks interleave their districts,
  // and district 3 has no blocks at all.
  auto h = ExplicitHierarchy::Create(
      3, {{2, 0, 1, 0, 2, 1}, {5, 0, 2, 0, 5, 1, 2, 4, 1, 0}});
  ASSERT_TRUE(h.ok());
  ExpectChildrenInvertParent(*h);
  EXPECT_EQ(h->Children(1, 0), (std::vector<ValueId>{1, 3}));
  EXPECT_EQ(h->Children(1, 2), (std::vector<ValueId>{0, 4}));
  EXPECT_EQ(h->Children(2, 0), (std::vector<ValueId>{1, 3, 9}));
  EXPECT_TRUE(h->Children(2, 3).empty());
}

TEST(ExplicitHierarchyTest, OutOfRangeValuesHaveNoChildren) {
  auto h = ExplicitHierarchy::Create(2, {{0, 0, 1}});
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(h->Children(1, 2).empty());
  EXPECT_TRUE(h->Children(1, kStarValue).empty());
  EXPECT_TRUE(h->Children(2, 0).empty());  // deepest level
}

TEST(DimensionTest, AutoLevelNames) {
  Dimension dim("loc", std::make_shared<FanoutHierarchy>(2, 3));
  EXPECT_EQ(dim.name(), "loc");
  EXPECT_EQ(dim.num_levels(), 2);
  EXPECT_EQ(dim.level_name(0), "*");
  EXPECT_EQ(dim.level_name(1), "loc.L1");
  EXPECT_EQ(dim.level_name(2), "loc.L2");
}

TEST(DimensionTest, ExplicitLevelNames) {
  Dimension dim("location", std::make_shared<FanoutHierarchy>(3, 4),
                {"city", "district", "street-block"});
  EXPECT_EQ(dim.level_name(1), "city");
  EXPECT_EQ(dim.level_name(3), "street-block");
}

}  // namespace
}  // namespace regcube
