#include "regcube/htree/htree.h"

#include <algorithm>

#include "regcube/common/logging.h"
#include "regcube/common/str.h"
#include "regcube/regression/aggregate.h"

namespace regcube {
namespace {

/// Merges per-dimension attribute lists (levels ascending within each
/// dimension) into one order, repeatedly taking the dimension whose next
/// attribute has the smallest (ascending) or largest (descending)
/// cardinality. Within-dimension level order is preserved by construction.
std::vector<Attribute> MergeByCardinality(const CubeSchema& schema,
                                          bool ascending) {
  const int num_dims = schema.num_dims();
  std::vector<int> next_level(static_cast<size_t>(num_dims));
  for (int d = 0; d < num_dims; ++d) {
    next_level[static_cast<size_t>(d)] =
        std::max(schema.o_layer()[static_cast<size_t>(d)], 1);
  }
  std::vector<Attribute> order;
  for (;;) {
    int best_dim = -1;
    std::int64_t best_card = 0;
    for (int d = 0; d < num_dims; ++d) {
      const int level = next_level[static_cast<size_t>(d)];
      if (level > schema.m_layer()[static_cast<size_t>(d)]) continue;
      const std::int64_t card = schema.dim(d).hierarchy().Cardinality(level);
      if (best_dim < 0 || (ascending ? card < best_card : card > best_card)) {
        best_dim = d;
        best_card = card;
      }
    }
    if (best_dim < 0) break;
    order.push_back({best_dim, next_level[static_cast<size_t>(best_dim)]});
    ++next_level[static_cast<size_t>(best_dim)];
  }
  return order;
}

}  // namespace

std::vector<Attribute> CardinalityAscendingOrder(const CubeSchema& schema) {
  return MergeByCardinality(schema, /*ascending=*/true);
}

std::vector<Attribute> CardinalityDescendingOrder(const CubeSchema& schema) {
  return MergeByCardinality(schema, /*ascending=*/false);
}

std::vector<Attribute> PathIntroductionOrder(const CuboidLattice& lattice,
                                             const DrillPath& path) {
  RC_CHECK(DrillPath::Validate(lattice, path).ok());
  std::vector<Attribute> order = lattice.AttributesOf(path.steps.front());
  for (size_t i = 1; i < path.steps.size(); ++i) {
    const LayerSpec& prev = lattice.spec(path.steps[i - 1]);
    const LayerSpec& next = lattice.spec(path.steps[i]);
    for (size_t d = 0; d < prev.size(); ++d) {
      if (next[d] != prev[d]) {
        order.push_back({static_cast<int>(d), next[d]});
      }
    }
  }
  return order;
}

Result<HTree> HTree::Build(const CubeSchema& schema,
                           const std::vector<MLayerTuple>& tuples,
                           Options options) {
  if (tuples.empty()) {
    return Status::InvalidArgument("cannot build an H-tree from no tuples");
  }

  // Validate that the attribute order covers the lattice's attribute set
  // exactly, with levels ascending within each dimension.
  std::size_t expected = 0;
  int max_level = 0;
  for (int d = 0; d < schema.num_dims(); ++d) {
    expected += static_cast<std::size_t>(
        schema.m_layer()[static_cast<size_t>(d)] -
        std::max(schema.o_layer()[static_cast<size_t>(d)], 1) + 1);
    max_level = std::max(max_level, schema.m_layer()[static_cast<size_t>(d)]);
  }
  if (options.attribute_order.size() != expected) {
    return Status::InvalidArgument(
        StrPrintf("attribute order has %zu entries, lattice needs %zu",
                  options.attribute_order.size(), expected));
  }
  const int stride = max_level + 1;
  std::vector<int> positions(
      static_cast<size_t>(schema.num_dims()) * static_cast<size_t>(stride),
      -1);
  std::vector<int> last_level(static_cast<size_t>(schema.num_dims()), 0);
  for (size_t pos = 0; pos < options.attribute_order.size(); ++pos) {
    const Attribute& a = options.attribute_order[pos];
    if (a.dim < 0 || a.dim >= schema.num_dims() || a.level < 1 ||
        a.level > schema.m_layer()[static_cast<size_t>(a.dim)] ||
        a.level < std::max(schema.o_layer()[static_cast<size_t>(a.dim)], 1)) {
      return Status::InvalidArgument(
          StrPrintf("attribute %zu (dim %d, level %d) outside the lattice",
                    pos, a.dim, a.level));
    }
    int& slot = positions[static_cast<size_t>(a.dim * stride + a.level)];
    if (slot >= 0) {
      return Status::InvalidArgument(
          StrPrintf("attribute (dim %d, level %d) appears twice", a.dim,
                    a.level));
    }
    slot = static_cast<int>(pos);
    if (a.level <= last_level[static_cast<size_t>(a.dim)]) {
      return Status::InvalidArgument(StrPrintf(
          "dimension %d levels must appear in increasing order", a.dim));
    }
    last_level[static_cast<size_t>(a.dim)] = a.level;
  }

  HTree tree;
  tree.attrs_ = std::move(options.attribute_order);
  tree.attr_position_ = std::move(positions);
  tree.attr_position_stride_ = stride;
  tree.store_nonleaf_ = options.store_nonleaf_measures;
  tree.interval_ = tuples.front().measure.interval;
  tree.codec_ = options.use_packed_keys ? PackedKeyCodec::ForSchema(schema)
                                        : std::nullopt;

  // ---- Phase 1: insert tuples into a build-id node set. Node identity is
  // a dense creation-order id; the parent/value -> child edges live in one
  // global hash map instead of per-node maps.
  struct BuildNode {
    ValueId value = kStarValue;
    std::int32_t attr_index = -1;
    NodeId parent = kInvalidNode;
  };
  const size_t num_attrs = tree.attrs_.size();
  std::vector<BuildNode> build;
  build.reserve(tuples.size() + 1);
  build.push_back(BuildNode{});  // build id 0: the root
  // Edge key ((parent + 1) << 32) | value — the + 1 keeps the root's edges
  // off the flat map's empty marker 0.
  FlatNodeMap child_of(tuples.size());
  std::vector<std::vector<NodeId>> creation(num_attrs);  // per pos, in order
  std::vector<Isb> leaf_acc;  // by build id; only leaves accumulate
  // Packed m-layer keys set every dimension's field (value + 1), so a
  // packed leaf key is never the empty marker 0.
  FlatNodeMap leaf_by_packed(tuples.size());
  bool codec_ok = tree.codec_.has_value();
  // Stored-measure trees remember which leaf each input built into (build
  // ids here, leaf ordinals after phase 2), so Rebase can write a new
  // window's measures without a key probe per cell.
  std::vector<std::uint32_t> input_leaf;
  if (tree.store_nonleaf_) input_leaf.reserve(tuples.size());

  for (const MLayerTuple& tuple : tuples) {
    if (!(tuple.measure.interval == tree.interval_)) {
      return Status::InvalidArgument(StrPrintf(
          "tuple interval %s differs from common interval %s "
          "(Theorem 3.2 requires one analysis window)",
          tuple.measure.interval.ToString().c_str(),
          tree.interval_.ToString().c_str()));
    }
    NodeId cur = 0;
    for (size_t pos = 0; pos < num_attrs; ++pos) {
      const Attribute& attr = tree.attrs_[pos];
      const ValueId v = schema.RollUp(attr.dim, tuple.key[attr.dim],
                                      attr.level);
      const std::uint64_t edge =
          (static_cast<std::uint64_t>(cur + 1) << 32) | v;
      bool inserted = false;
      NodeId& slot = child_of.Slot(edge, &inserted);
      if (inserted) {
        const NodeId id = static_cast<NodeId>(build.size());
        build.push_back(BuildNode{v, static_cast<std::int32_t>(pos), cur});
        slot = id;
        creation[pos].push_back(id);
        if (pos + 1 == num_attrs) ++tree.num_leaves_;
      }
      cur = slot;
    }
    if (leaf_acc.size() < build.size()) leaf_acc.resize(build.size());
    AccumulateStandardDim(leaf_acc[cur], tuple.measure);
    if (tree.store_nonleaf_) input_leaf.push_back(cur);
    if (codec_ok) {
      std::uint64_t packed = 0;
      if (tree.codec_->Pack(tuple.key, &packed)) {
        bool leaf_inserted = false;
        NodeId& leaf_slot = leaf_by_packed.Slot(packed, &leaf_inserted);
        if (leaf_inserted) leaf_slot = cur;
      } else {
        // A key outside the schema's cardinalities (e.g. a key mapper):
        // packing is unsound for this tree, fall back to walks everywhere.
        codec_ok = false;
      }
    }
  }

  // ---- Phase 2: finalize into the arena. Renumber nodes in DFS preorder
  // with children in ascending value order, so every subtree's leaves are
  // one contiguous ordinal range, then rebuild the CSR child spans, header
  // chains (same chain order, remapped ids) and SoA measure arrays.
  const size_t n = build.size();
  // Every phase-1 insert created exactly one node, so build ids 1..n-1 ARE
  // the edge list in creation order: counting-sort them by parent, then
  // value-sort each parent's small span — no global sort, and the edge map
  // is never scanned.
  std::vector<std::uint32_t> span_begin(n + 1, 0);
  std::vector<std::uint32_t> span_end(n, 0);
  for (size_t b = 1; b < n; ++b) ++span_begin[build[b].parent + 1];
  for (size_t p = 1; p <= n; ++p) span_begin[p] += span_begin[p - 1];
  for (size_t p = 0; p < n; ++p) span_end[p] = span_begin[p];
  std::vector<std::pair<ValueId, NodeId>> edges(n - 1);
  for (size_t b = 1; b < n; ++b) {
    edges[span_end[build[b].parent]++] = {build[b].value,
                                          static_cast<NodeId>(b)};
  }
  for (size_t p = 0; p < n; ++p) {
    std::sort(edges.begin() + span_begin[p], edges.begin() + span_end[p]);
  }

  std::vector<NodeId> perm(n, kInvalidNode);
  std::vector<std::uint32_t> leaf_begin_of(n, 0);  // by new id
  std::vector<std::uint32_t> leaf_end_of(n, 0);
  tree.subtree_end_.assign(n, 0);
  struct Frame {
    NodeId build_id;
    NodeId new_id;
    std::uint32_t cur;
    std::uint32_t end;
  };
  std::vector<Frame> stack;
  stack.reserve(num_attrs + 2);
  NodeId next_id = 0;
  std::uint32_t leaf_n = 0;
  auto enter = [&](NodeId b) {
    const NodeId id = next_id++;
    perm[b] = id;
    leaf_begin_of[id] = leaf_n;
    if (span_end[b] == span_begin[b]) ++leaf_n;  // a leaf is its own range
    stack.push_back(Frame{b, id, span_begin[b], span_end[b]});
  };
  enter(0);
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.cur < f.end) {
      const NodeId child = edges[f.cur].second;
      ++f.cur;
      enter(child);
    } else {
      leaf_end_of[f.new_id] = leaf_n;
      // All ids in (f.new_id, next_id) are the subtree just finished.
      tree.subtree_end_[f.new_id] = next_id;
      stack.pop_back();
    }
  }
  RC_CHECK(next_id == static_cast<NodeId>(n));

  std::vector<NodeId> inv(n);
  for (size_t b = 0; b < n; ++b) inv[perm[b]] = static_cast<NodeId>(b);

  tree.nodes_.resize(n);
  tree.child_values_.resize(edges.size());
  tree.child_nodes_.resize(edges.size());
  std::uint32_t csr = 0;
  for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
    const NodeId b = inv[id];
    const BuildNode& bn = build[b];
    HTreeNode& node = tree.nodes_[id];
    node.value = bn.value;
    node.attr_index = bn.attr_index;
    node.parent = (b == 0) ? kInvalidNode : perm[bn.parent];
    node.child_begin = csr;
    for (std::uint32_t e = span_begin[b]; e < span_end[b]; ++e) {
      tree.child_values_[csr] =
          edges[e].first;
      tree.child_nodes_[csr] = perm[edges[e].second];
      ++csr;
    }
    node.child_end = csr;
    node.leaf_begin = leaf_begin_of[id];
    node.leaf_end = leaf_end_of[id];
  }

  // Header chains: the exact pre-arena semantics — nodes linked at the
  // head in creation order, so each chain is reverse creation order. Only
  // the ids are new.
  tree.headers_.resize(num_attrs);
  for (size_t pos = 0; pos < num_attrs; ++pos) {
    for (const NodeId b : creation[pos]) {
      const NodeId id = perm[b];
      tree.nodes_[id].next_link =
          tree.headers_[pos].Link(build[b].value, id);
    }
  }

  // Leaf measures into the SoA arrays, by leaf ordinal.
  tree.leaf_base_.resize(leaf_n);
  tree.leaf_slope_.resize(leaf_n);
  if (num_attrs > 0) {
    for (const NodeId b : creation[num_attrs - 1]) {
      const std::uint32_t lo = tree.nodes_[perm[b]].leaf_begin;
      tree.leaf_base_[lo] = leaf_acc[b].base;
      tree.leaf_slope_[lo] = leaf_acc[b].slope;
    }
  }

  if (codec_ok) {
    // Renumber the leaf index into arena ids in place: the keys (and so
    // the slots) are unchanged, no copy or rehash.
    leaf_by_packed.MapValues([&](NodeId b) { return perm[b]; });
    tree.leaf_by_packed_ = std::move(leaf_by_packed);
  } else {
    tree.codec_.reset();
  }

  if (tree.store_nonleaf_) {
    for (std::uint32_t& leaf : input_leaf) {
      leaf = tree.nodes_[perm[leaf]].leaf_begin;
    }
    tree.input_leaf_ = std::move(input_leaf);
    tree.node_base_.resize(n);
    tree.node_slope_.resize(n);
    tree.RefoldStoredMeasures();
  }
  return tree;
}

void HTree::RefoldStoredMeasures() {
  for (size_t id = 0; id < nodes_.size(); ++id) {
    const Isb m = FoldLeafRange(nodes_[id].leaf_begin, nodes_[id].leaf_end);
    node_base_[id] = m.base;
    node_slope_[id] = m.slope;
  }
}

void HTree::Rebase(const std::vector<MLayerTuple>& tuples) {
  RC_CHECK(store_nonleaf_);
  RC_CHECK_EQ(tuples.size(), input_leaf_.size());
  RC_CHECK_EQ(static_cast<std::int64_t>(tuples.size()), num_leaves_)
      << "Rebase needs one input per leaf";
  interval_ = tuples.front().measure.interval;
  for (size_t i = 0; i < tuples.size(); ++i) {
    const Isb& m = tuples[i].measure;
    RC_CHECK(m.interval == interval_) << "Rebase needs one common interval";
    leaf_base_[input_leaf_[i]] = m.base;
    leaf_slope_[input_leaf_[i]] = m.slope;
  }
  RefoldStoredMeasures();
}

const Attribute& HTree::attribute(int pos) const {
  RC_CHECK(pos >= 0 && pos < num_attributes());
  return attrs_[static_cast<size_t>(pos)];
}

const HeaderTable& HTree::header(int pos) const {
  RC_CHECK(pos >= 0 && pos < num_attributes());
  return headers_[static_cast<size_t>(pos)];
}

const HTreeNode* HTree::FindChild(const HTreeNode* n, ValueId v) const {
  const ValueId* begin = child_values_.data() + n->child_begin;
  const ValueId* end = child_values_.data() + n->child_end;
  const ValueId* it = std::lower_bound(begin, end, v);
  if (it == end || *it != v) return nullptr;
  return &nodes_[child_nodes_[static_cast<size_t>(
      n->child_begin + (it - begin))]];
}

Isb HTree::LeafMeasure(std::uint32_t leaf_ordinal) const {
  return Isb{interval_, leaf_base_[leaf_ordinal], leaf_slope_[leaf_ordinal]};
}

Isb HTree::FoldLeafRange(std::uint32_t leaf_begin,
                         std::uint32_t leaf_end) const {
  RC_DCHECK(leaf_begin < leaf_end);
  // Left-to-right over the contiguous range, initialized from the first
  // element — the exact operand sequence of chaining AccumulateStandardDim
  // over the leaves in leaf-ordinal order.
  double base = leaf_base_[leaf_begin];
  double slope = leaf_slope_[leaf_begin];
  for (std::uint32_t i = leaf_begin + 1; i < leaf_end; ++i) {
    base += leaf_base_[i];
    slope += leaf_slope_[i];
  }
  return Isb{interval_, base, slope};
}

Isb HTree::SubtreeMeasure(const HTreeNode* node) const {
  RC_CHECK(node != nullptr);
  if (store_nonleaf_) {
    const NodeId id = id_of(node);
    return Isb{interval_, node_base_[id], node_slope_[id]};
  }
  if (node->is_leaf()) return LeafMeasure(node->leaf_begin);
  return FoldLeafRange(node->leaf_begin, node->leaf_end);
}

Isb HTree::StoredMeasure(const HTreeNode* node) const {
  RC_CHECK(node != nullptr);
  if (store_nonleaf_) {
    const NodeId id = id_of(node);
    return Isb{interval_, node_base_[id], node_slope_[id]};
  }
  RC_CHECK(node->is_leaf());
  return LeafMeasure(node->leaf_begin);
}

const HTreeNode* HTree::FindLeafByWalk(const CubeSchema& schema,
                                       const CellKey& key) const {
  const HTreeNode* cur = root();
  for (const Attribute& attr : attrs_) {
    const ValueId v = schema.RollUp(attr.dim, key[attr.dim], attr.level);
    cur = FindChild(cur, v);
    if (cur == nullptr) return nullptr;
  }
  return cur;
}

const HTreeNode* HTree::FindLeaf(const CubeSchema& schema,
                                 const CellKey& key) const {
  if (codec_.has_value()) {
    std::uint64_t packed = 0;
    if (codec_->Pack(key, &packed)) {
      const NodeId* id = leaf_by_packed_.Find(packed);
      return id == nullptr ? nullptr : &nodes_[*id];
    }
  }
  return FindLeafByWalk(schema, key);
}

Result<const HTreeNode*> HTree::UpdateLeafMeasure(const CubeSchema& schema,
                                                  const CellKey& key,
                                                  const Isb& measure) {
  if (!(measure.interval == interval_)) {
    return Status::InvalidArgument(StrPrintf(
        "measure interval %s differs from the tree's common interval %s",
        measure.interval.ToString().c_str(), interval_.ToString().c_str()));
  }
  const HTreeNode* found = FindLeaf(schema, key);
  if (found == nullptr) {
    return Status::NotFound(StrPrintf(
        "no leaf for m-layer cell %s", key.ToString().c_str()));
  }
  RC_CHECK(found->is_leaf());
  leaf_base_[found->leaf_begin] = measure.base;
  leaf_slope_[found->leaf_begin] = measure.slope;
  if (store_nonleaf_) {
    // The leaf's stored aggregate is its own measure; ancestors go stale
    // until RefreshAncestorMeasures.
    const NodeId id = id_of(found);
    node_base_[id] = measure.base;
    node_slope_[id] = measure.slope;
  }
  return found;
}

void HTree::RefreshAncestorMeasures(
    const std::vector<const HTreeNode*>& leaves) {
  RC_CHECK(store_nonleaf_);
  // Distinct dirty ancestors, bucketed by depth (root's attr_index is -1,
  // so bucket 0 is the root), deduped by visit stamp instead of a hash
  // set. An already-stamped ancestor implies its whole path up is stamped
  // — stop climbing.
  if (visit_stamp_.size() != nodes_.size()) {
    visit_stamp_.assign(nodes_.size(), 0);
    visit_epoch_ = 0;
  }
  ++visit_epoch_;
  std::vector<std::vector<const HTreeNode*>> dirty(attrs_.size() + 1);
  for (const HTreeNode* leaf : leaves) {
    for (const HTreeNode* cur = parent(leaf); cur != nullptr;
         cur = parent(cur)) {
      const NodeId id = id_of(cur);
      if (visit_stamp_[id] == visit_epoch_) break;
      visit_stamp_[id] = visit_epoch_;
      dirty[static_cast<size_t>(cur->attr_index + 1)].push_back(cur);
    }
  }
  for (size_t d = dirty.size(); d-- > 0;) {
    for (const HTreeNode* node : dirty[d]) {
      // The canonical leaf-range fold — bitwise the build-time stored
      // measure of a tree built over the patched window.
      const Isb m = FoldLeafRange(node->leaf_begin, node->leaf_end);
      const NodeId id = id_of(node);
      node_base_[id] = m.base;
      node_slope_[id] = m.slope;
    }
  }
}

ValueId HTree::PathValue(const HTreeNode* node, int attr_pos) const {
  const HTreeNode* cur = node;
  while (cur != nullptr && cur->attr_index != attr_pos) cur = parent(cur);
  RC_CHECK(cur != nullptr) << "attribute position " << attr_pos
                           << " not on the path of node at depth "
                           << node->attr_index;
  return cur->value;
}

std::vector<MLayerTuple> HTree::MLayerCells() const {
  // Every leaf is one m-layer cell; reconstruct keys from the m-level
  // attribute positions on the leaf's path (key width comes from attrs_).
  int num_dims = 0;
  for (const Attribute& a : attrs_) num_dims = std::max(num_dims, a.dim + 1);

  std::vector<int> m_level(static_cast<size_t>(num_dims), 0);
  for (const Attribute& a : attrs_) {
    m_level[static_cast<size_t>(a.dim)] =
        std::max(m_level[static_cast<size_t>(a.dim)], a.level);
  }
  // One walk per leaf: position -> dimension for the m-level attributes.
  std::vector<int> m_dim_of_pos(attrs_.size(), -1);
  for (int d = 0; d < num_dims; ++d) {
    const int pos = AttributePosition(d, m_level[static_cast<size_t>(d)]);
    RC_CHECK_GE(pos, 0);
    m_dim_of_pos[static_cast<size_t>(pos)] = d;
  }

  std::vector<MLayerTuple> out;
  out.reserve(static_cast<size_t>(num_leaves_));
  // DFS preorder visits leaves in leaf-ordinal order; a linear arena scan
  // does too.
  for (const HTreeNode& n : nodes_) {
    if (!n.is_leaf()) continue;
    MLayerTuple t;
    t.key = CellKey(num_dims);
    for (const HTreeNode* cur = &n; cur->attr_index >= 0;
         cur = parent(cur)) {
      const int d = m_dim_of_pos[static_cast<size_t>(cur->attr_index)];
      if (d >= 0) t.key.set(d, cur->value);
    }
    t.measure = LeafMeasure(n.leaf_begin);
    out.push_back(std::move(t));
  }
  return out;
}

std::int64_t HTree::MemoryBytes() const {
  // Analytic model (docs/DESIGN.md): the arena node + one CSR child edge
  // per non-root node + the SoA measure arrays + header tables + the
  // packed leaf index.
  constexpr std::int64_t kNodeBytes =
      static_cast<std::int64_t>(sizeof(HTreeNode));       // 32
  constexpr std::int64_t kSkipEntryBytes = 4;             // subtree_end_
  constexpr std::int64_t kChildEntryBytes = 8;            // value + child id
  constexpr std::int64_t kMeasureBytes = 16;              // base + slope
  std::int64_t bytes = num_nodes() * (kNodeBytes + kSkipEntryBytes) +
                       (num_nodes() - 1) * kChildEntryBytes +
                       num_leaves_ * kMeasureBytes;
  if (store_nonleaf_) {
    bytes += num_nodes() * kMeasureBytes +
             static_cast<std::int64_t>(input_leaf_.size()) * 4;  // ordinals
  }
  bytes += leaf_by_packed_.MemoryBytes();  // flat slots: 12 B × capacity
  for (const HeaderTable& h : headers_) bytes += h.MemoryBytes();
  return bytes;
}

std::string HTree::ToString() const {
  std::string out = StrPrintf(
      "HTree(%lld nodes, %lld leaves, %d attributes, nonleaf_measures=%d)\n",
      static_cast<long long>(num_nodes()),
      static_cast<long long>(num_leaves_), num_attributes(),
      store_nonleaf_ ? 1 : 0);
  for (size_t pos = 0; pos < attrs_.size(); ++pos) {
    out += StrPrintf("  attr %zu: dim %d level %d (%lld values, %lld nodes)\n",
                     pos, attrs_[pos].dim, attrs_[pos].level,
                     static_cast<long long>(headers_[pos].num_values()),
                     static_cast<long long>(headers_[pos].total_nodes()));
  }
  return out;
}

}  // namespace regcube
