#include "regcube/htree/htree_cubing.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_set>

#include "regcube/common/logging.h"
#include "regcube/common/thread_pool.h"
#include "regcube/regression/aggregate.h"

namespace regcube {

std::int64_t CellMapMemoryBytes(const CellMap& cells) {
  constexpr std::int64_t kEntryOverhead = 16;  // hash node + bucket share
  return static_cast<std::int64_t>(cells.size()) *
         (static_cast<std::int64_t>(sizeof(CellKey)) +
          static_cast<std::int64_t>(sizeof(Isb)) + kEntryOverhead);
}

namespace {

/// Positions in the tree order of each attribute of `cuboid`, the index
/// (into that vector) of the deepest one, and the inverse maps a single
/// root walk needs to assemble the cuboid key of a node: tree position ->
/// cuboid dimension (-1 for positions the cuboid projects away) and, when
/// the tree's codec is available, tree position -> packed-field shift.
struct CuboidAttrs {
  std::vector<Attribute> attrs;
  std::vector<int> positions;
  int deepest = -1;  // index into positions; -1 if the cuboid has none
  std::vector<int> dim_of_pos;
  std::vector<int> shift_of_pos;  // empty when the tree has no codec
};

CuboidAttrs ResolveAttrs(const HTree& tree, const CuboidLattice& lattice,
                         CuboidId cuboid) {
  CuboidAttrs out;
  out.attrs = lattice.AttributesOf(cuboid);
  out.positions.reserve(out.attrs.size());
  out.dim_of_pos.assign(static_cast<size_t>(tree.num_attributes()), -1);
  const PackedKeyCodec* codec = tree.codec();
  if (codec != nullptr) {
    out.shift_of_pos.assign(static_cast<size_t>(tree.num_attributes()), -1);
  }
  int best_pos = -1;
  for (size_t i = 0; i < out.attrs.size(); ++i) {
    const int pos = tree.AttributePosition(out.attrs[i].dim,
                                           out.attrs[i].level);
    RC_CHECK_GE(pos, 0) << "cuboid attribute missing from the tree order";
    out.positions.push_back(pos);
    out.dim_of_pos[static_cast<size_t>(pos)] = out.attrs[i].dim;
    if (codec != nullptr) {
      out.shift_of_pos[static_cast<size_t>(pos)] =
          codec->shift(out.attrs[i].dim);
    }
    if (pos > best_pos) {
      best_pos = pos;
      out.deepest = static_cast<int>(i);
    }
  }
  return out;
}

/// Builds the cell key of `node` for the attribute set in one walk to the
/// root: every path position the cuboid keeps contributes its value (the
/// deepest attribute is the node's own position, covered by the walk).
CellKey KeyFromWalk(const HTree& tree, const HTreeNode* node,
                    const CuboidAttrs& ca, int num_dims) {
  CellKey key(num_dims);
  for (const HTreeNode* cur = node; cur->attr_index >= 0;
       cur = tree.parent(cur)) {
    const int d = ca.dim_of_pos[static_cast<size_t>(cur->attr_index)];
    if (d >= 0) key.set(d, cur->value);
  }
  return key;
}

/// Packed cuboid key of every node at position <= `deep_pos`, indexed by
/// NodeId. One linear arena sweep replaces a root walk per chain node: the
/// arena is in DFS preorder, so a node's parent key is always computed
/// before the node itself. Nodes deeper than `deep_pos` are skipped a
/// whole subtree at a time (preorder makes subtrees contiguous id ranges);
/// their entries are left uninitialized — the chain scans only read nodes
/// at `deep_pos`, and every ancestor entry on their paths is written.
std::unique_ptr<std::uint64_t[]> PackedKeysBySweep(const HTree& tree,
                                                   const CuboidAttrs& ca,
                                                   int deep_pos) {
  const auto n = static_cast<std::size_t>(tree.num_nodes());
  std::unique_ptr<std::uint64_t[]> keys(new std::uint64_t[n]);
  keys[0] = 0;  // the root carries no values
  for (std::size_t id = 1; id < n;) {
    const HTreeNode* node = tree.node(static_cast<NodeId>(id));
    std::uint64_t key = keys[node->parent];
    const int s = ca.shift_of_pos[static_cast<size_t>(node->attr_index)];
    if (s >= 0) key |= (static_cast<std::uint64_t>(node->value) + 1) << s;
    keys[id] = key;
    // At deep_pos, everything below this node is deeper: hop the subtree.
    id = node->attr_index == deep_pos
             ? tree.subtree_end(static_cast<NodeId>(id))
             : id + 1;
  }
  return keys;
}

}  // namespace

CuboidCells ComputeCuboidCellsTransient(const HTree& tree,
                                        const CuboidLattice& lattice,
                                        CuboidId cuboid) {
  const int num_dims = lattice.schema().num_dims();
  CuboidCells cells;
  const CuboidAttrs ca = ResolveAttrs(tree, lattice, cuboid);

  if (ca.attrs.empty()) {
    // Apex: one all-star cell aggregating the whole tree. Its packed key
    // would be 0 (the flat map's empty marker), so it takes the CellKey
    // form regardless of the codec.
    cells.keyed.emplace(CellKey(num_dims), tree.SubtreeMeasure(tree.root()));
    return cells;
  }

  const int deep_pos = ca.positions[static_cast<size_t>(ca.deepest)];
  const HeaderTable& header = tree.header(deep_pos);
  const PackedKeyCodec* codec = tree.codec();
  if (codec != nullptr) {
    // Hot path: accumulate under the 64-bit packed key in the flat map,
    // keys precomputed by one arena sweep. The per-cell operand order is
    // the chain order, exactly as below, so the measures are bitwise
    // identical to the CellKey fallback.
    cells.codec = codec;
    const auto keys = PackedKeysBySweep(tree, ca, deep_pos);
    for (const auto& [value, entry] : header.entries()) {
      for (const HTreeNode* n = tree.node(entry.head); n != nullptr;
           n = tree.node(n->next_link)) {
        AccumulateStandardDim(cells.packed.Slot(keys[tree.id_of(n)]),
                              tree.SubtreeMeasure(n));
      }
    }
    return cells;
  }

  for (const auto& [value, entry] : header.entries()) {
    for (const HTreeNode* n = tree.node(entry.head); n != nullptr;
         n = tree.node(n->next_link)) {
      CellKey key = KeyFromWalk(tree, n, ca, num_dims);
      Isb& cell = cells.keyed.try_emplace(std::move(key)).first->second;
      AccumulateStandardDim(cell, tree.SubtreeMeasure(n));
    }
  }
  return cells;
}

CellMap ComputeCuboidCells(const HTree& tree, const CuboidLattice& lattice,
                           CuboidId cuboid) {
  return ComputeCuboidCellsTransient(tree, lattice, cuboid).ToCellMap();
}

std::vector<CuboidCells> ComputeCuboidCellsTransientPartitioned(
    const HTree& tree, const CuboidLattice& lattice,
    const std::vector<CuboidId>& cuboids, ThreadPool* pool) {
  std::vector<CuboidCells> maps(cuboids.size());
  auto compute_one = [&](std::int64_t i) {
    maps[static_cast<size_t>(i)] = ComputeCuboidCellsTransient(
        tree, lattice, cuboids[static_cast<size_t>(i)]);
  };
  ParallelForOrSerial(pool, static_cast<std::int64_t>(cuboids.size()),
                      compute_one);
  return maps;
}

CuboidFoldIndex CuboidFoldIndex::Build(const HTree& tree,
                                       const CuboidLattice& lattice,
                                       CuboidId cuboid) {
  const int num_dims = lattice.schema().num_dims();
  CuboidFoldIndex index;
  const CuboidAttrs ca = ResolveAttrs(tree, lattice, cuboid);
  const PackedKeyCodec* codec = tree.codec();

  if (ca.attrs.empty()) {
    // Apex: the single all-star cell aggregates the root's subtree (its
    // packed key is 0, which a sorted array holds like any other).
    if (codec != nullptr) {
      index.packed_keys_.push_back(0);
    } else {
      index.keys_.emplace_back(num_dims);
    }
    index.offsets_ = {0, 1};
    index.nodes_.push_back(tree.id_of(tree.root()));
    return index;
  }

  // The same chain scan as ComputeCuboidCells, recording (key, node) in
  // visit order; a stable sort by key then groups each cell's nodes
  // without reordering them, so every span keeps the chain order.
  const int deep_pos = ca.positions[static_cast<size_t>(ca.deepest)];
  const HeaderTable& header = tree.header(deep_pos);
  auto compress = [&index](auto& visits, auto& keys, auto key_less) {
    std::stable_sort(visits.begin(), visits.end(),
                     [&](const auto& a, const auto& b) {
                       return key_less(a.first, b.first);
                     });
    index.nodes_.reserve(visits.size());
    for (size_t i = 0; i < visits.size(); ++i) {
      if (i == 0 || !(visits[i].first == visits[i - 1].first)) {
        keys.push_back(visits[i].first);
        index.offsets_.push_back(static_cast<std::uint32_t>(i));
      }
      index.nodes_.push_back(visits[i].second);
    }
    index.offsets_.push_back(static_cast<std::uint32_t>(visits.size()));
    keys.shrink_to_fit();
    index.offsets_.shrink_to_fit();
  };
  if (codec != nullptr) {
    const auto keys = PackedKeysBySweep(tree, ca, deep_pos);
    std::vector<std::pair<std::uint64_t, NodeId>> visits;
    for (const auto& [value, entry] : header.entries()) {
      for (const HTreeNode* n = tree.node(entry.head); n != nullptr;
           n = tree.node(n->next_link)) {
        const NodeId id = tree.id_of(n);
        visits.emplace_back(keys[id], id);
      }
    }
    compress(visits, index.packed_keys_, std::less<std::uint64_t>());
    return index;
  }
  std::vector<std::pair<CellKey, NodeId>> visits;
  for (const auto& [value, entry] : header.entries()) {
    for (const HTreeNode* n = tree.node(entry.head); n != nullptr;
         n = tree.node(n->next_link)) {
      visits.emplace_back(KeyFromWalk(tree, n, ca, num_dims), tree.id_of(n));
    }
  }
  compress(visits, index.keys_, CanonicalKeyLess);
  return index;
}

std::int64_t CuboidFoldIndex::Find(const HTree& tree,
                                   const CellKey& key) const {
  const PackedKeyCodec* codec = tree.codec();
  if (codec != nullptr) {
    std::uint64_t packed = 0;
    if (!codec->Pack(key, &packed)) return -1;
    const auto it =
        std::lower_bound(packed_keys_.begin(), packed_keys_.end(), packed);
    if (it == packed_keys_.end() || *it != packed) return -1;
    return it - packed_keys_.begin();
  }
  const auto it =
      std::lower_bound(keys_.begin(), keys_.end(), key, CanonicalKeyLess);
  if (it == keys_.end() || !(*it == key)) return -1;
  return it - keys_.begin();
}

CellKey CuboidFoldIndex::KeyOf(const HTree& tree, std::int64_t cell) const {
  const auto i = static_cast<size_t>(cell);
  const PackedKeyCodec* codec = tree.codec();
  return codec != nullptr ? codec->Unpack(packed_keys_[i]) : keys_[i];
}

Isb CuboidFoldIndex::Fold(const HTree& tree, std::int64_t cell) const {
  const auto i = static_cast<size_t>(cell);
  Isb acc;
  for (std::uint32_t j = offsets_[i]; j < offsets_[i + 1]; ++j) {
    AccumulateStandardDim(acc, tree.SubtreeMeasure(tree.node(nodes_[j])));
  }
  return acc;
}

void CuboidFoldIndex::FoldAll(const HTree& tree,
                              std::vector<Isb>* out) const {
  out->resize(static_cast<size_t>(num_cells()));
  for (std::int64_t c = 0; c < num_cells(); ++c) {
    (*out)[static_cast<size_t>(c)] = Fold(tree, c);
  }
}

std::int64_t CuboidFoldIndex::MemoryBytes() const {
  return static_cast<std::int64_t>(
      packed_keys_.capacity() * sizeof(std::uint64_t) +
      keys_.capacity() * sizeof(CellKey) +
      offsets_.capacity() * sizeof(std::uint32_t) +
      nodes_.capacity() * sizeof(NodeId));
}

CuboidCells ComputeDrillChildrenTransient(const HTree& tree,
                                          const CuboidLattice& lattice,
                                          CuboidId parent_cuboid,
                                          const CellMap& parent_cells,
                                          CuboidId child_cuboid) {
  RC_CHECK(tree.store_nonleaf_measures())
      << "drilling requires the popular-path tree configuration";
  RC_CHECK(lattice.IsAncestorOrEqual(parent_cuboid, child_cuboid));
  const int num_dims = lattice.schema().num_dims();

  CuboidCells out;
  if (parent_cells.empty()) return out;

  const CuboidAttrs child_ca = ResolveAttrs(tree, lattice, child_cuboid);
  RC_CHECK(!child_ca.attrs.empty())
      << "a drill child always has at least one attribute";
  const CuboidAttrs parent_ca = ResolveAttrs(tree, lattice, parent_cuboid);
  const int deep_pos =
      child_ca.positions[static_cast<size_t>(child_ca.deepest)];

  // Every parent attribute sits at or above the child's deepest position:
  // a roll-up parent only removes detail (checked here because path keys
  // are read off the node's root path).
  for (int pos : parent_ca.positions) RC_CHECK_LE(pos, deep_pos);

  const HeaderTable& header = tree.header(deep_pos);
  const PackedKeyCodec* codec = tree.codec();
  if (codec != nullptr) {
    // Pre-pack the drilled parent keys once; a parent key that does not
    // pack cannot name any in-tree cell, so dropping it filters nothing.
    std::unordered_set<std::uint64_t> drilled;
    drilled.reserve(parent_cells.size());
    for (const auto& [key, measure] : parent_cells) {
      std::uint64_t packed = 0;
      if (codec->Pack(key, &packed)) drilled.insert(packed);
    }
    out.codec = codec;
    // One arena sweep assembles both the parent filter keys and the child
    // cell keys (see PackedKeysBySweep; fused here to share the pass).
    const auto n_nodes = static_cast<std::size_t>(tree.num_nodes());
    std::unique_ptr<std::uint64_t[]> parent_keys(new std::uint64_t[n_nodes]);
    std::unique_ptr<std::uint64_t[]> child_keys(new std::uint64_t[n_nodes]);
    parent_keys[0] = 0;
    child_keys[0] = 0;
    for (std::size_t id = 1; id < n_nodes;) {
      const HTreeNode* node = tree.node(static_cast<NodeId>(id));
      const size_t pos = static_cast<size_t>(node->attr_index);
      const std::uint64_t field = static_cast<std::uint64_t>(node->value) + 1;
      std::uint64_t pk = parent_keys[node->parent];
      std::uint64_t ck = child_keys[node->parent];
      const int ps = parent_ca.shift_of_pos[pos];
      if (ps >= 0) pk |= field << ps;
      const int cs = child_ca.shift_of_pos[pos];
      if (cs >= 0) ck |= field << cs;
      parent_keys[id] = pk;
      child_keys[id] = ck;
      // Subtrees are contiguous id ranges: hop everything below deep_pos.
      id = node->attr_index == deep_pos
               ? tree.subtree_end(static_cast<NodeId>(id))
               : id + 1;
    }
    for (const auto& [value, entry] : header.entries()) {
      for (const HTreeNode* n = tree.node(entry.head); n != nullptr;
           n = tree.node(n->next_link)) {
        const NodeId id = tree.id_of(n);
        if (drilled.find(parent_keys[id]) == drilled.end()) continue;
        AccumulateStandardDim(out.packed.Slot(child_keys[id]),
                              tree.SubtreeMeasure(n));
      }
    }
    return out;
  }

  for (const auto& [value, entry] : header.entries()) {
    for (const HTreeNode* n = tree.node(entry.head); n != nullptr;
         n = tree.node(n->next_link)) {
      // Parent key off the path; only descendants of drilled cells count.
      CellKey parent_key = KeyFromWalk(tree, n, parent_ca, num_dims);
      if (parent_cells.find(parent_key) == parent_cells.end()) continue;

      CellKey child_key = KeyFromWalk(tree, n, child_ca, num_dims);
      Isb& cell = out.keyed.try_emplace(std::move(child_key)).first->second;
      AccumulateStandardDim(cell, tree.SubtreeMeasure(n));
    }
  }
  return out;
}

CellMap ComputeDrillChildren(const HTree& tree, const CuboidLattice& lattice,
                             CuboidId parent_cuboid,
                             const CellMap& parent_cells,
                             CuboidId child_cuboid) {
  return ComputeDrillChildrenTransient(tree, lattice, parent_cuboid,
                                       parent_cells, child_cuboid)
      .ToCellMap();
}

CuboidCells ReadPrefixCuboidCellsTransient(const HTree& tree,
                                           const CuboidLattice& lattice,
                                           CuboidId cuboid, int depth) {
  RC_CHECK(tree.store_nonleaf_measures());
  const int num_dims = lattice.schema().num_dims();
  CuboidCells cells;

  if (depth == 0) {
    // Apex: packed key would be 0 (the flat map's empty marker), so it
    // takes the CellKey form regardless of the codec.
    cells.keyed.emplace(CellKey(num_dims), tree.SubtreeMeasure(tree.root()));
    return cells;
  }
  RC_CHECK_LE(depth, tree.num_attributes());

  // Sanity: the cuboid's attributes are exactly the deepest introduced
  // level per dimension among the first `depth` tree attributes.
  {
    std::vector<int> deepest(static_cast<size_t>(num_dims), 0);
    for (int pos = 0; pos < depth; ++pos) {
      const Attribute& a = tree.attribute(pos);
      deepest[static_cast<size_t>(a.dim)] =
          std::max(deepest[static_cast<size_t>(a.dim)], a.level);
    }
    const LayerSpec& spec = lattice.spec(cuboid);
    for (int d = 0; d < num_dims; ++d) {
      RC_CHECK_EQ(spec[static_cast<size_t>(d)],
                  deepest[static_cast<size_t>(d)])
          << "cuboid is not the prefix cuboid of depth " << depth;
    }
  }

  const CuboidAttrs ca = ResolveAttrs(tree, lattice, cuboid);
  // Nodes at `depth` are exactly the chains of attribute depth-1.
  const HeaderTable& header = tree.header(depth - 1);
  const PackedKeyCodec* codec = tree.codec();
  if (codec != nullptr) {
    cells.codec = codec;
    const auto keys = PackedKeysBySweep(tree, ca, depth - 1);
    for (const auto& [value, entry] : header.entries()) {
      for (const HTreeNode* n = tree.node(entry.head); n != nullptr;
           n = tree.node(n->next_link)) {
        // Distinct prefix nodes are distinct cells of a prefix cuboid.
        const bool inserted = cells.packed.EmplaceIfAbsent(
            keys[tree.id_of(n)], tree.StoredMeasure(n));
        RC_DCHECK(inserted) << "prefix node collision at depth " << depth;
        (void)inserted;
      }
    }
    return cells;
  }
  for (const auto& [value, entry] : header.entries()) {
    for (const HTreeNode* n = tree.node(entry.head); n != nullptr;
         n = tree.node(n->next_link)) {
      CellKey key = KeyFromWalk(tree, n, ca, num_dims);
      // Distinct prefix nodes are distinct cells of a prefix cuboid.
      const bool inserted =
          cells.keyed.emplace(key, tree.StoredMeasure(n)).second;
      RC_DCHECK(inserted) << "prefix node collision at " << key.ToString();
      (void)inserted;
    }
  }
  return cells;
}

CellMap ReadPrefixCuboidCells(const HTree& tree, const CuboidLattice& lattice,
                              CuboidId cuboid, int depth) {
  return ReadPrefixCuboidCellsTransient(tree, lattice, cuboid, depth)
      .ToCellMap();
}

}  // namespace regcube
