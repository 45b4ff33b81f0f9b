// DrillDown probes the drilled value's children (ConceptHierarchy::Children)
// in each child cuboid instead of scanning it, and scans only when the
// cuboid holds fewer cells than that or the step drills out of `*`. Every
// answer here is checked bitwise, in order, against the plain scan in
// reference_drill.h: every retained key of every cuboid, malformed keys,
// wide keys, a fan-out and a non-contiguous explicit hierarchy, an o-layer
// at level 0, and the facade's Engine::Query at several shard counts and
// CubeSnapshot::Query.

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "equivalence_harness.h"
#include "gtest/gtest.h"
#include "reference_drill.h"
#include "regcube/api/regcube.h"
#include "regcube/common/pcg_random.h"
#include "regcube/core/mo_cubing.h"
#include "regcube/core/query.h"

namespace regcube {
namespace {

using equivalence::ExpectCellResultsIdentical;
using testing_util::ReferenceDrillDown;
using testing_util::ReferenceSupporters;

// ------------------------------------------------------------------ schemas

std::shared_ptr<const CubeSchema> MakeSchema(std::vector<Dimension> dims,
                                             LayerSpec m_layer,
                                             LayerSpec o_layer) {
  auto schema = CubeSchema::Create(std::move(dims), std::move(m_layer),
                                   std::move(o_layer));
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  return std::make_shared<const CubeSchema>(std::move(schema).value());
}

/// Three fan-out-3 dimensions of three levels; the o-layer is the caller's.
std::shared_ptr<const CubeSchema> FanoutSchema(LayerSpec o_layer) {
  auto h = std::make_shared<FanoutHierarchy>(3, 3);
  std::vector<Dimension> dims;
  for (const char* name : {"A", "B", "C"}) dims.emplace_back(name, h);
  return MakeSchema(std::move(dims), {3, 3, 3}, std::move(o_layer));
}

/// An explicit hierarchy whose children are scattered: 3 cities, 9
/// districts, 27 blocks, each parent drawn at random (so some districts
/// have no blocks), next to a fan-out-4 dimension of two levels.
std::shared_ptr<const CubeSchema> ExplicitSchema(LayerSpec o_layer) {
  Pcg32 rng(91);
  std::vector<ValueId> districts(9), blocks(27);
  for (ValueId& p : districts) p = rng.Uniform(3);
  for (ValueId& p : blocks) p = rng.Uniform(9);
  auto location = ExplicitHierarchy::Create(3, {districts, blocks});
  EXPECT_TRUE(location.ok()) << location.status().ToString();
  std::vector<Dimension> dims;
  dims.emplace_back("loc", std::make_shared<ExplicitHierarchy>(
                               std::move(location).value()));
  dims.emplace_back("user", std::make_shared<FanoutHierarchy>(2, 4));
  return MakeSchema(std::move(dims), {3, 2}, std::move(o_layer));
}

/// `n` distinct random m-layer cells with fitted-looking measures: most
/// slopes small, every tenth a strong trend of either sign.
std::vector<MLayerTuple> RandomTuples(const CubeSchema& schema, int n,
                                      std::uint64_t seed) {
  Pcg32 rng(seed);
  std::set<std::vector<ValueId>> used;
  std::vector<MLayerTuple> out;
  while (static_cast<int>(out.size()) < n) {
    std::vector<ValueId> values;
    CellKey key(schema.num_dims());
    for (int d = 0; d < schema.num_dims(); ++d) {
      const int level = schema.m_layer()[static_cast<size_t>(d)];
      const auto card = static_cast<std::uint32_t>(
          schema.dim(d).hierarchy().Cardinality(level));
      values.push_back(rng.Uniform(card));
      key.set(d, values.back());
    }
    if (!used.insert(values).second) continue;
    Isb isb;
    isb.interval = TimeInterval{0, 15};
    isb.base = 10.0 * rng.NextDouble();
    isb.slope = out.size() % 10 == 0
                    ? (rng.Next() % 2 ? 1 : -1) * (0.2 + 0.4 * rng.NextDouble())
                    : 0.02 * rng.NextGaussian();
    out.push_back(MLayerTuple{key, isb});
  }
  return out;
}

RegressionCube CubeOf(std::shared_ptr<const CubeSchema> schema,
                      const std::vector<MLayerTuple>& tuples,
                      const ExceptionPolicy& policy) {
  MoCubingOptions options;
  options.policy = policy;
  auto cube = ComputeMoCubing(std::move(schema), tuples, options);
  EXPECT_TRUE(cube.ok()) << cube.status().ToString();
  return std::move(cube).value();
}

// ------------------------------------------------------------------- checks

/// How DrillDown serves each child cuboid of the drills checked, mirrored
/// from its rule, so a suite can show that every side of the choice ran.
struct PathCounts {
  int probed = 0;         // fewer children than stored cells
  int scanned_small = 0;  // the cuboid holds no more cells than children
  int scanned_star = 0;   // drilling out of `*`

  void Add(const RegressionCube& cube, CuboidId cuboid, const CellKey& key) {
    const CuboidLattice& lattice = cube.lattice();
    const LayerSpec& spec = lattice.spec(cuboid);
    for (CuboidId child : lattice.DrillChildren(cuboid)) {
      const CellMap* cells = cube.CellsAt(child);
      if (cells == nullptr) continue;
      const LayerSpec& child_spec = lattice.spec(child);
      int d = 0;
      while (child_spec[static_cast<size_t>(d)] ==
             spec[static_cast<size_t>(d)]) {
        ++d;
      }
      const int level = spec[static_cast<size_t>(d)];
      if (level == 0) {
        ++scanned_star;
      } else if (cube.schema().dim(d).hierarchy().Children(level, key[d])
                     .size() < cells->size()) {
        ++probed;
      } else {
        ++scanned_small;
      }
    }
  }
};

/// DrillDown of `key` equals the reference scan's, bitwise and in order,
/// and so does ExceptionSupporters when `supporters` is set.
void ExpectDrillMatches(const RegressionCube& cube,
                        const ExceptionPolicy& policy, CuboidId cuboid,
                        const CellKey& key, bool supporters = true) {
  SCOPED_TRACE(cube.lattice().CuboidName(cuboid) + " " + key.ToString());
  const CubeView view(cube, policy);
  ExpectCellResultsIdentical(ReferenceDrillDown(cube, policy, cuboid, key),
                             view.DrillDown(cuboid, key));
  if (!supporters) return;
  ExpectCellResultsIdentical(ReferenceSupporters(cube, policy, cuboid, key),
                             view.ExceptionSupporters(cuboid, key));
}

/// DrillDown from every retained key of every cuboid, and the supporters
/// of every o-layer key, where an analyst starts: the supporters walk is a
/// breadth-first loop over DrillDown, and the reference walk rescans whole
/// cuboids at every step. Returns how many cells the drills surfaced, so a
/// caller can tell the check was not vacuous.
std::size_t ExpectEveryDrillMatches(const RegressionCube& cube,
                                    const ExceptionPolicy& policy,
                                    PathCounts* counts) {
  const CubeView view(cube, policy);
  std::size_t surfaced = 0;
  for (CuboidId c = 0; c < cube.lattice().num_cuboids(); ++c) {
    const CellMap* cells = cube.CellsAt(c);
    if (cells == nullptr) continue;
    for (const auto& [key, isb] : *cells) {
      ExpectDrillMatches(cube, policy, c, key,
                         c == cube.lattice().o_layer_id());
      surfaced += view.DrillDown(c, key).size();
      counts->Add(cube, c, key);
    }
  }
  return surfaced;
}

/// Keys that are no cell of `cuboid`, derived from its retained `key`: a
/// wrong dimension count, a star where the cuboid has a level, a value
/// beyond its level's cardinality, a value where the cuboid has a star.
std::vector<CellKey> MalformedKeys(const CubeSchema& schema,
                                   const LayerSpec& spec, const CellKey& key) {
  std::vector<CellKey> out;
  const int dims = schema.num_dims();
  for (int n : {dims - 1, dims + 1}) {
    if (n < 1) continue;
    CellKey k(n);
    for (int d = 0; d < std::min(n, dims); ++d) k.set(d, key[d]);
    out.push_back(k);
  }
  for (int d = 0; d < dims; ++d) {
    const int level = spec[static_cast<size_t>(d)];
    std::vector<ValueId> bad;
    if (level == 0) {
      bad = {0, 1};
    } else {
      const auto card = static_cast<ValueId>(
          schema.dim(d).hierarchy().Cardinality(level));
      bad = {kStarValue, card, card + 7, kStarValue - 1};
    }
    for (ValueId v : bad) {
      CellKey k = key;
      k.set(d, v);
      out.push_back(k);
    }
  }
  return out;
}

void ExpectMalformedKeysDrillToNothing(const RegressionCube& cube,
                                       const ExceptionPolicy& policy) {
  const CubeView view(cube, policy);
  for (CuboidId c = 0; c < cube.lattice().num_cuboids(); ++c) {
    const CellMap* cells = cube.CellsAt(c);
    if (cells == nullptr || cells->empty()) continue;
    for (const CellKey& bad : MalformedKeys(
             cube.schema(), cube.lattice().spec(c), cells->begin()->first)) {
      ExpectDrillMatches(cube, policy, c, bad);
      EXPECT_TRUE(view.DrillDown(c, bad).empty()) << bad.ToString();
      EXPECT_TRUE(view.ExceptionSupporters(c, bad).empty()) << bad.ToString();
    }
  }
}

// -------------------------------------------------------------- cube suites

struct CubeCase {
  const char* name;
  std::shared_ptr<const CubeSchema> schema;
  int tuples;
};

TEST(DrillDownTest, EveryRetainedKeyMatchesTheScan) {
  const std::vector<CubeCase> cases = {
      {"fanout", FanoutSchema({1, 1, 1}), 300},
      {"fanout o at *", FanoutSchema({0, 1, 0}), 300},
      {"explicit", ExplicitSchema({1, 1}), 60},
      {"explicit o at *", ExplicitSchema({0, 1}), 60},
  };
  for (const CubeCase& c : cases) {
    SCOPED_TRACE(c.name);
    const bool star = c.schema->o_layer()[0] == 0;
    PathCounts counts;
    for (std::uint64_t seed : {3}) {
      const auto tuples = RandomTuples(*c.schema, c.tuples, seed);
      // A low threshold keeps most cells (the probe); the high ones leave
      // exception cuboids with fewer cells than a value's children (the
      // scan): only the strongest trends (|slope| up to 0.6) pass them.
      for (double threshold : {0.03, 0.1, 0.5, 0.58}) {
        const ExceptionPolicy policy(threshold);
        const RegressionCube cube = CubeOf(c.schema, tuples, policy);
        EXPECT_GT(ExpectEveryDrillMatches(cube, policy, &counts), 0u);
        ExpectMalformedKeysDrillToNothing(cube, policy);
      }
    }
    EXPECT_GT(counts.probed, 0);
    EXPECT_GT(counts.scanned_small, 0);
    EXPECT_EQ(counts.scanned_star > 0, star);
  }
}

TEST(DrillDownTest, WideKeysFindTheirArithmeticChildren) {
  // Values beyond a level's cardinality (as a key mapper may produce) are
  // stored like any other. Drilling a wide key of (A1, B2, C1) into
  // (A1, B3, C1) probes B = v*3 .. v*3+2, including the children that sit
  // just below kStarValue.
  const auto schema = FanoutSchema({1, 1, 1});
  const ExceptionPolicy policy(0.02);
  RegressionCube cube = CubeOf(schema, RandomTuples(*schema, 300, 5), policy);
  const CuboidLattice& lattice = cube.lattice();
  const CuboidId parent = lattice.id({1, 2, 1});
  const CuboidId child = lattice.id({1, 3, 1});
  const Isb strong{TimeInterval{0, 15}, 1.0, 0.5};
  auto key = [](ValueId a, ValueId b, ValueId c) {
    CellKey k(3);
    k.set(0, a);
    k.set(1, b);
    k.set(2, c);
    return k;
  };
  const ValueId top = kStarValue / 3 - 1;  // children ...292 .. ...294
  std::vector<CellKey> parents = {key(5, 40, 9), key(5, top, 9)};
  std::vector<std::vector<CellResult>> wants;  // per parent, in order
  for (const CellKey& p : parents) {
    cube.mutable_exceptions().Insert(parent, p, strong);
    std::vector<CellResult> expected;
    for (ValueId j : {0u, 2u}) {
      const CellKey c = key(p[0], p[1] * 3 + j, p[2]);
      cube.mutable_exceptions().Insert(child, c, strong);
      expected.push_back(CellResult{child, c, strong, true});
    }
    // Neighbours that do not descend (the previous value's last child,
    // another A value) and a child that is no exception.
    cube.mutable_exceptions().Insert(child, key(p[0], p[1] * 3 - 1, p[2]),
                                     strong);
    cube.mutable_exceptions().Insert(child, key(p[0] + 1, p[1] * 3, p[2]),
                                     strong);
    cube.mutable_exceptions().Insert(
        child, key(p[0], p[1] * 3 + 1, p[2]),
        Isb{TimeInterval{0, 15}, 1.0, 0.0});
    wants.push_back(std::move(expected));
  }
  const CubeView view(cube, policy);
  for (size_t i = 0; i < parents.size(); ++i) {
    SCOPED_TRACE(parents[i].ToString());
    ASSERT_LT(3u, cube.CellsAt(child)->size());  // the probe serves it
    ExpectCellResultsIdentical(wants[i], view.DrillDown(parent, parents[i]));
  }
  for (const CellKey& p : parents) ExpectDrillMatches(cube, policy, parent, p);
  PathCounts counts;
  EXPECT_GT(ExpectEveryDrillMatches(cube, policy, &counts), 0u);
}

// ------------------------------------------------------------ facade suite

WorkloadSpec EngineSpec() {
  WorkloadSpec spec;
  spec.num_dims = 3;
  spec.num_levels = 2;
  spec.fanout = 4;
  spec.num_tuples = 150;
  spec.series_length = 32;
  spec.seed = 19;
  spec.anomaly_fraction = 0.1;
  return spec;
}

TEST(DrillDownTest, EngineAndSnapshotQueriesMatchTheScanAtEveryShardCount) {
  const WorkloadSpec spec = EngineSpec();
  const auto hierarchy = std::make_shared<FanoutHierarchy>(2, 4);
  std::vector<Dimension> dims;
  for (const char* name : {"A", "B", "C"}) dims.emplace_back(name, hierarchy);
  // Dimension A's o-layer is `*`, so the o-layer drills out of it.
  const auto schema = MakeSchema(std::move(dims), {2, 2, 2}, {0, 1, 1});
  const auto tilt = equivalence::SmallTiltPolicy();
  const ExceptionPolicy policy(0.02);
  constexpr int kLevel = 0, kWindow = 4;

  StreamCubeEngine::Options options;
  options.tilt_policy = tilt;
  options.policy = policy;
  testing_util::ReferenceStore reference(schema, options);
  StreamGenerator gen(spec);
  const std::vector<StreamTuple> stream = gen.GenerateStream();
  ASSERT_TRUE(reference.IngestBatch(stream).ok());
  ASSERT_TRUE(reference.SealThrough(spec.series_length - 1).ok());
  auto ref_cube = reference.ComputeCube(kLevel, kWindow);
  ASSERT_TRUE(ref_cube.ok()) << ref_cube.status().ToString();
  const CuboidLattice& lattice = ref_cube->lattice();

  std::vector<QuerySpec> specs;
  std::vector<std::vector<CellResult>> want;
  for (CuboidId c = 0; c < lattice.num_cuboids(); ++c) {
    const CellMap* cells = ref_cube->CellsAt(c);
    if (cells == nullptr || cells->empty()) continue;
    std::vector<CellKey> keys;
    for (const auto& [key, isb] : *cells) keys.push_back(key);
    for (const CellKey& bad :
         MalformedKeys(*schema, lattice.spec(c), keys.front())) {
      keys.push_back(bad);
    }
    for (const CellKey& key : keys) {
      specs.push_back(QuerySpec::DrillDown(c, key, kLevel, kWindow));
      want.push_back(ReferenceDrillDown(*ref_cube, policy, c, key));
      specs.push_back(QuerySpec::Supporters(c, key, kLevel, kWindow));
      want.push_back(ReferenceSupporters(*ref_cube, policy, c, key));
    }
  }
  std::size_t surfaced = 0;
  for (const auto& cells : want) surfaced += cells.size();
  ASSERT_GT(surfaced, 0u);

  for (int shards : {1, 2, 8}) {
    SCOPED_TRACE(shards);
    auto built = EngineBuilder()
                     .SetSchema(schema)
                     .SetTiltPolicy(tilt)
                     .SetExceptionPolicy(policy)
                     .SetShardCount(shards)
                     .Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    Engine engine = std::move(built).value();
    ASSERT_TRUE(engine.IngestBatch(stream).ok());
    ASSERT_TRUE(engine.SealThrough(spec.series_length - 1).ok());
    const auto snapshot = engine.TakeSnapshot();
    for (size_t i = 0; i < specs.size(); ++i) {
      SCOPED_TRACE(QueryKindName(specs[i].kind) + std::string(" ") +
                   specs[i].key.ToString());
      auto from_engine = engine.Query(specs[i]);
      auto from_snapshot = snapshot->Query(specs[i]);
      ASSERT_TRUE(from_engine.ok()) << from_engine.status().ToString();
      ASSERT_TRUE(from_snapshot.ok()) << from_snapshot.status().ToString();
      ExpectCellResultsIdentical(want[i], from_engine->cells());
      ExpectCellResultsIdentical(want[i], from_snapshot->cells());
    }
  }
}

}  // namespace
}  // namespace regcube
