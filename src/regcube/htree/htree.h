#ifndef REGCUBE_HTREE_HTREE_H_
#define REGCUBE_HTREE_HTREE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "regcube/common/status.h"
#include "regcube/cube/cell.h"
#include "regcube/cube/cuboid.h"
#include "regcube/cube/packed_key.h"
#include "regcube/cube/schema.h"
#include "regcube/htree/header_table.h"
#include "regcube/regression/isb.h"

namespace regcube {

/// One merged m-layer stream: its cell key (value per dimension at the
/// m-layer level) and its regression measure over the common analysis
/// window. This is the input row of both cubing algorithms.
struct MLayerTuple {
  CellKey key;
  Isb measure;
};

/// A node of the hyper-linked H-tree (§4.4, Fig 7). Nodes at depth k+1 carry
/// a value of the k-th attribute in the tree's attribute order; leaf nodes
/// aggregate the measures of the m-layer tuples that share the full path.
///
/// Arena layout: nodes live in one contiguous vector in DFS preorder
/// (children visited in ascending value order), so every link is a 32-bit
/// NodeId and each node's subtree — in particular its leaves — occupies a
/// contiguous id range. Children are a sorted span [child_begin, child_end)
/// into the tree's CSR child arrays, resolved by binary search. Measures
/// are hoisted into the tree's parallel SoA arrays (indexed by leaf ordinal
/// and NodeId), so folds walk flat double arrays instead of per-node
/// payloads.
struct HTreeNode {
  ValueId value = kStarValue;
  std::int32_t attr_index = -1;  // position in the attribute order; -1 = root
  NodeId parent = kInvalidNode;
  NodeId next_link = kInvalidNode;  // node-link chain (same attr, same value)
  std::uint32_t child_begin = 0;    // CSR span into child_values_/child_nodes_
  std::uint32_t child_end = 0;
  std::uint32_t leaf_begin = 0;  // contiguous leaf-ordinal range under this
  std::uint32_t leaf_end = 0;    // node; a leaf's own ordinal is leaf_begin

  bool is_leaf() const { return child_begin == child_end; }
};

/// Flat open-addressing map from nonzero 64-bit keys to NodeIds (Fibonacci
/// hashing, linear probing, grow at 7/8 load). Key 0 marks an empty slot;
/// every key stored here — build edge keys and packed m-layer leaf keys —
/// is constructed nonzero (DESIGN.md). One multiply, one mask and a short
/// probe per lookup, no per-entry allocation: this is both the build
/// phase's edge/leaf workhorse and the tree's retained leaf index.
class FlatNodeMap {
 public:
  FlatNodeMap() = default;
  explicit FlatNodeMap(std::size_t expected) {
    std::size_t cap = 64;
    while (cap < expected * 2) cap *= 2;
    keys_.assign(cap, 0);
    vals_.assign(cap, 0);
    mask_ = cap - 1;
  }

  /// The value slot of `key` (nonzero); `*inserted` reports whether the
  /// entry is new (value 0-initialized).
  NodeId& Slot(std::uint64_t key, bool* inserted) {
    if ((size_ + 1) * 8 > keys_.size() * 7) Grow();
    std::size_t i = ProbeStart(key);
    while (keys_[i] != 0 && keys_[i] != key) i = (i + 1) & mask_;
    *inserted = keys_[i] == 0;
    if (*inserted) {
      keys_[i] = key;
      ++size_;
    }
    return vals_[i];
  }

  /// The value stored under `key`, or nullptr. Valid on a default-
  /// constructed (empty) map.
  const NodeId* Find(std::uint64_t key) const {
    if (size_ == 0) return nullptr;
    std::size_t i = ProbeStart(key);
    while (keys_[i] != 0) {
      if (keys_[i] == key) return &vals_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  std::size_t size() const { return size_; }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != 0) fn(keys_[i], vals_[i]);
    }
  }

  /// Rewrites every stored value as fn(value), in place — keys are
  /// untouched, so no rehash happens (how Build renumbers the leaf index
  /// into arena ids without copying the map).
  template <typename Fn>
  void MapValues(Fn&& fn) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != 0) vals_[i] = fn(vals_[i]);
    }
  }

  std::int64_t MemoryBytes() const {
    return static_cast<std::int64_t>(keys_.size() *
                                     (sizeof(std::uint64_t) + sizeof(NodeId)));
  }

 private:
  std::size_t ProbeStart(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 31) &
           mask_;
  }

  void Grow() {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<NodeId> old_vals = std::move(vals_);
    const std::size_t new_cap = old_keys.empty() ? 64 : old_keys.size() * 2;
    keys_.assign(new_cap, 0);
    vals_.assign(new_cap, 0);
    mask_ = new_cap - 1;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == 0) continue;
      std::size_t j = ProbeStart(old_keys[i]);
      while (keys_[j] != 0) j = (j + 1) & mask_;
      keys_[j] = old_keys[i];
      vals_[j] = old_vals[i];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<NodeId> vals_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

/// The H-tree: a compact prefix tree over expanded m-layer tuples with
/// per-attribute header tables and node-link chains. The attribute order
/// determines sharing (cardinality-ascending maximizes prefix sharing,
/// Example 5) or encodes a drilling path (popular-path cubing).
class HTree {
 public:
  struct Options {
    /// Tree level order. Must contain exactly every attribute of the
    /// m/o lattice (each dimension's levels max(o,1)..m), with each
    /// dimension's levels in increasing order.
    std::vector<Attribute> attribute_order;

    /// Store subtree aggregates in non-leaf nodes (popular-path mode).
    bool store_nonleaf_measures = false;

    /// When false, the packed-key codec is dropped even if the schema
    /// fits 64 bits, forcing the CellKey fallback everywhere. The vector
    /// path is the oracle representation; equivalence suites build one
    /// tree each way and assert the results are bit-identical.
    bool use_packed_keys = true;
  };

  /// Builds the tree from m-layer tuples. All tuple measures must share one
  /// common time interval (Theorem 3.2 precondition); violations are
  /// InvalidArgument. Tuples mapping to the same m-layer cell are aggregated
  /// into one leaf.
  static Result<HTree> Build(const CubeSchema& schema,
                             const std::vector<MLayerTuple>& tuples,
                             Options options);

  HTree(HTree&&) noexcept = default;
  HTree& operator=(HTree&&) noexcept = default;

  int num_attributes() const { return static_cast<int>(attrs_.size()); }
  const Attribute& attribute(int pos) const;
  const std::vector<Attribute>& attribute_order() const { return attrs_; }

  /// Position of attribute (dim, level) in the order; -1 if absent (level 0).
  int AttributePosition(int dim, int level) const {
    const std::int64_t idx =
        static_cast<std::int64_t>(dim) * attr_position_stride_ + level;
    if (dim < 0 || level < 0 || attr_position_stride_ <= 0 || level >= attr_position_stride_ ||
        idx >= static_cast<std::int64_t>(attr_position_.size())) {
      return -1;
    }
    return attr_position_[static_cast<size_t>(idx)];
  }

  const HeaderTable& header(int pos) const;
  const HTreeNode* root() const { return nodes_.data(); }

  /// Arena accessors: node for an id (nullptr for kInvalidNode) and the id
  /// of a node owned by this tree. Chain traversal is
  /// `for (n = tree.node(head); n != nullptr; n = tree.node(n->next_link))`.
  const HTreeNode* node(NodeId id) const {
    return id == kInvalidNode ? nullptr : &nodes_[id];
  }
  NodeId id_of(const HTreeNode* n) const {
    return static_cast<NodeId>(n - nodes_.data());
  }
  const HTreeNode* parent(const HTreeNode* n) const {
    return node(n->parent);
  }

  /// One past the last arena id of `id`'s subtree (preorder = subtrees are
  /// contiguous id ranges). Lets linear sweeps that only need nodes above
  /// some depth jump over entire deeper subtrees instead of filtering
  /// node by node.
  NodeId subtree_end(NodeId id) const { return subtree_end_[id]; }

  /// Child of `n` carrying `v`, by binary search of the node's sorted child
  /// span; nullptr when absent.
  const HTreeNode* FindChild(const HTreeNode* n, ValueId v) const;

  std::int64_t num_nodes() const {
    return static_cast<std::int64_t>(nodes_.size());
  }
  std::int64_t num_leaves() const { return num_leaves_; }
  bool store_nonleaf_measures() const { return store_nonleaf_; }

  /// The schema-derived packed-key codec, when every key of this schema
  /// fits 64 bits and every built tuple key packed cleanly; nullptr
  /// otherwise (kernels fall back to CellKey containers).
  const PackedKeyCodec* codec() const {
    return codec_.has_value() ? &*codec_ : nullptr;
  }

  /// The common time interval of every measure in the tree.
  const TimeInterval& common_interval() const { return interval_; }

  /// Aggregated measure of all m-layer cells below `node` (Theorem 3.2).
  /// O(1) when the node stores a measure (stored-measure trees and every
  /// leaf), otherwise one contiguous fold over the node's leaf range.
  Isb SubtreeMeasure(const HTreeNode* node) const;

  /// The measure stored at `node`: its leaf aggregate, or — on a
  /// stored-measure tree — its maintained subtree aggregate.
  /// Pre: node is a leaf or the tree stores non-leaf measures.
  Isb StoredMeasure(const HTreeNode* node) const;

  /// The canonical fold every stored and lazy aggregate reduces to: the
  /// left-to-right sum over the contiguous leaf-measure range
  /// [leaf_begin, leaf_end). Build-time stored measures, the lazy m/o
  /// subtree walk and RefreshAncestorMeasures all call exactly this, which
  /// is what makes them bitwise interchangeable.
  Isb FoldLeafRange(std::uint32_t leaf_begin, std::uint32_t leaf_end) const;

  /// The leaf holding m-layer cell `key`, or nullptr if no tuple with that
  /// key was built into the tree — the key-addressed entry point the
  /// incremental patch machinery uses (UpdateLeafMeasure routes through
  /// it). One packed-key hash probe when the codec is available; otherwise
  /// the attribute walk.
  const HTreeNode* FindLeaf(const CubeSchema& schema,
                            const CellKey& key) const;

  /// The pre-packing leaf lookup: rolls the key up one attribute at a time
  /// and binary-searches each child span. Retained as the packed probe's
  /// oracle (the two agree on every key) and as the fallback for keys that
  /// do not pack.
  const HTreeNode* FindLeafByWalk(const CubeSchema& schema,
                                  const CellKey& key) const;

  /// Replaces the measure of the leaf holding m-layer cell `key` — the
  /// patch half of incremental cube maintenance: the tree's structure,
  /// chains and header tables are untouched (every node pointer and every
  /// traversal order stays valid), only the one leaf's regression point
  /// moves. `measure` must share the tree's common interval and the leaf
  /// must already exist (a new cell is a structural change; callers rebuild
  /// for those). Returns the updated leaf. On a stored-measure tree the
  /// leaf's ancestors go stale until RefreshAncestorMeasures runs over the
  /// batch of updated leaves.
  Result<const HTreeNode*> UpdateLeafMeasure(const CubeSchema& schema,
                                             const CellKey& key,
                                             const Isb& measure);

  /// Recomputes the stored subtree measures on every path from the given
  /// (just-updated) leaves to the root. Each dirty node re-runs the
  /// canonical leaf-range fold, so the stored measures stay bitwise equal
  /// to those of a tree freshly built over the patched window — the
  /// property the incremental cube's bit-identity rests on.
  /// O(Σ dirty nodes' leaf ranges), with shared ancestors refolded once.
  /// Pre: store_nonleaf_measures (CHECKed).
  void RefreshAncestorMeasures(const std::vector<const HTreeNode*>& leaves);

  /// Moves a stored-measure tree to a new analysis window over the same
  /// input: `tuples` is positionally Build's input with new measures (an
  /// epoch roll of the same cells). Each leaf takes its input's measure
  /// through the input -> leaf map recorded at build, and every stored
  /// node refolds with FoldLeafRange, so the tree is bitwise the one Build
  /// would make from `tuples`. Structure, chains, header tables and node
  /// ids are untouched, so fold indexes over the tree stay valid.
  /// O(Σ nodes' leaf ranges). Pre (CHECKed): store_nonleaf_measures, one
  /// input per leaf (no repeated key), and one interval shared by every
  /// tuple.
  void Rebase(const std::vector<MLayerTuple>& tuples);

  /// Value of attribute `attr_pos` on `node`'s root path.
  /// Pre: attr_pos <= node->attr_index (checked).
  ValueId PathValue(const HTreeNode* node, int attr_pos) const;

  /// All m-layer cells as tuples (read back from the leaves, in leaf-
  /// ordinal order).
  std::vector<MLayerTuple> MLayerCells() const;

  /// Analytic footprint: arena nodes, CSR child spans, SoA measure arrays,
  /// header tables and the packed leaf index (DESIGN.md — this is what the
  /// benchmarks charge to "H-tree").
  std::int64_t MemoryBytes() const;

  std::string ToString() const;

 private:
  HTree() = default;

  Isb LeafMeasure(std::uint32_t leaf_ordinal) const;

  /// Recomputes every stored node measure from the leaves.
  void RefoldStoredMeasures();

  std::vector<HTreeNode> nodes_;  // DFS preorder; nodes_[0] is the root
  std::vector<NodeId> subtree_end_;    // by id: one past the subtree's ids
  std::vector<ValueId> child_values_;  // CSR: per-node sorted value spans
  std::vector<NodeId> child_nodes_;    // CSR: child ids aligned with values
  // SoA measures. Leaf aggregates by leaf ordinal (both configurations);
  // stored subtree aggregates by NodeId (store_nonleaf_measures only).
  std::vector<double> leaf_base_;
  std::vector<double> leaf_slope_;
  std::vector<double> node_base_;
  std::vector<double> node_slope_;
  std::vector<Attribute> attrs_;
  std::vector<HeaderTable> headers_;
  // Flat (dim * stride + level) -> position map; -1 = absent. Replaces the
  // old unordered_map — the domain is tiny and fixed at build time.
  std::vector<int> attr_position_;
  int attr_position_stride_ = 0;
  std::int64_t num_leaves_ = 0;
  bool store_nonleaf_ = false;
  TimeInterval interval_;
  // Packed-key leaf index: m-layer key -> leaf id, when the codec holds.
  std::optional<PackedKeyCodec> codec_;
  FlatNodeMap leaf_by_packed_;
  // Leaf ordinal of each Build input, by input position (stored-measure
  // trees only): Rebase's write map.
  std::vector<std::uint32_t> input_leaf_;
  // RefreshAncestorMeasures dedupe stamps, by NodeId (lazily sized).
  std::vector<std::uint64_t> visit_stamp_;
  std::uint64_t visit_epoch_ = 0;
};

/// Attribute order for m/o H-cubing: every lattice attribute sorted by
/// ascending cardinality (Example 5: "this ordering makes the tree compact
/// since there are likely more sharings at higher level nodes"), with
/// (dim, level) as the tie-break.
std::vector<Attribute> CardinalityAscendingOrder(const CubeSchema& schema);

/// Reverse of the above (worst-case sharing); used by the A1 ablation.
std::vector<Attribute> CardinalityDescendingOrder(const CubeSchema& schema);

/// Attribute order for popular-path cubing: the order attributes are
/// introduced along the drill path (o-layer attributes first, then each
/// step's refined attribute). Pre: path valid (checked).
std::vector<Attribute> PathIntroductionOrder(const CuboidLattice& lattice,
                                             const DrillPath& path);

}  // namespace regcube

#endif  // REGCUBE_HTREE_HTREE_H_
