#ifndef REGCUBE_HTREE_HTREE_CUBING_H_
#define REGCUBE_HTREE_HTREE_CUBING_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "regcube/cube/cell.h"
#include "regcube/cube/cuboid.h"
#include "regcube/cube/packed_key.h"
#include "regcube/htree/htree.h"
#include "regcube/regression/isb.h"

namespace regcube {

class ThreadPool;

/// Cells of one cuboid: key -> aggregated regression measure. This plays the
/// role of the paper's (local) header table holding "the aggregated value
/// for (b21, a21), (b21, a22), etc."
using CellMap = std::unordered_map<CellKey, Isb, CellKeyHash>;

/// Analytic footprint of a cell map (key + measure + hash-node overhead per
/// entry), used by the algorithms' memory accounting.
std::int64_t CellMapMemoryBytes(const CellMap& cells);

/// Flat open-addressing map from nonzero 64-bit packed cell keys to
/// accumulated measures — the cubing kernels' transient accumulator. Two
/// contiguous arrays (keys, measures) instead of a hash node per cell: an
/// insert is one multiply, one mask and a short linear probe, and iteration
/// is a linear sweep. Key 0 marks an empty slot, which is safe because every
/// packed key the kernels produce has the cuboid's deepest attribute set
/// (fields store value + 1, so a set field is never 0); the all-star apex
/// key is the one packed key that is 0, and the kernels route the apex
/// through the CellKey fallback.
class PackedCellMap {
 public:
  /// The measure slot of `key` (nonzero), default-constructed — the empty
  /// accumulator AccumulateStandardDim initializes from — on first access.
  Isb& Slot(std::uint64_t key) {
    if ((size_ + 1) * 8 > keys_.size() * 7) Grow();
    std::size_t i = ProbeStart(key);
    while (keys_[i] != 0 && keys_[i] != key) i = (i + 1) & mask_;
    if (keys_[i] == 0) {
      keys_[i] = key;
      ++size_;
    }
    return vals_[i];
  }

  /// Keep-first insert: stores (key, measure) unless `key` is present.
  /// Returns true when it inserted.
  bool EmplaceIfAbsent(std::uint64_t key, const Isb& measure) {
    Isb& slot = Slot(key);
    if (!slot.interval.empty()) return false;
    slot = measure;
    return true;
  }

  std::int64_t size() const { return static_cast<std::int64_t>(size_); }

  /// Visits every entry as (packed key, measure), in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != 0) fn(keys_[i], vals_[i]);
    }
  }

  /// Footprint of the slot arrays (the whole capacity: open addressing
  /// pays for empty slots too).
  std::int64_t MemoryBytes() const {
    return static_cast<std::int64_t>(keys_.size()) *
           static_cast<std::int64_t>(sizeof(std::uint64_t) + sizeof(Isb));
  }

 private:
  std::size_t ProbeStart(std::uint64_t key) const {
    // Fibonacci hashing: the multiply mixes the packed fields into the
    // high bits, which the shift brings under the mask.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 31) &
           mask_;
  }

  void Grow() {
    const std::size_t new_cap = keys_.empty() ? 64 : keys_.size() * 2;
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<Isb> old_vals = std::move(vals_);
    keys_.assign(new_cap, 0);
    vals_.assign(new_cap, Isb());
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
  std::vector<Isb> vals_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

/// Cells of one cuboid in the kernels' native accumulation form: a
/// PackedCellMap over 64-bit packed keys when the tree's codec is available
/// (codec non-null), the CellKey-keyed CellMap fallback otherwise. The
/// cubing algorithms sweep most cuboids exactly once (exception filtering
/// retains ~1% of the cells), so they iterate in place via ForEach and only
/// pay ToCellMap for the maps the cube actually keeps (the o-layer).
struct CuboidCells {
  const PackedKeyCodec* codec = nullptr;  // non-null <=> packed form
  PackedCellMap packed;
  CellMap keyed;

  std::int64_t size() const {
    return codec != nullptr ? packed.size()
                            : static_cast<std::int64_t>(keyed.size());
  }

  /// Visits every cell as (const CellKey&, const Isb&). Packed keys are
  /// unpacked on the fly — no allocation, CellKey storage is inline.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (codec != nullptr) {
      packed.ForEach([&](std::uint64_t key, const Isb& measure) {
        fn(codec->Unpack(key), measure);
      });
      return;
    }
    for (const auto& [key, measure] : keyed) fn(key, measure);
  }

  /// ForEach restricted to cells whose measure satisfies `pred` — the
  /// exception filters' shape. Keys are only unpacked for matches, so the
  /// common all-but-exceptions rejection never touches the key at all.
  template <typename Pred, typename Fn>
  void ForEachWhere(Pred&& pred, Fn&& fn) const {
    if (codec != nullptr) {
      packed.ForEach([&](std::uint64_t key, const Isb& measure) {
        if (pred(measure)) fn(codec->Unpack(key), measure);
      });
      return;
    }
    for (const auto& [key, measure] : keyed) {
      if (pred(measure)) fn(key, measure);
    }
  }

  /// Materializes the CellKey-keyed map (for retained maps only; transient
  /// consumers use ForEach).
  CellMap ToCellMap() const {
    if (codec == nullptr) return keyed;
    CellMap cells;
    cells.reserve(static_cast<std::size_t>(packed.size()));
    packed.ForEach([&](std::uint64_t key, const Isb& measure) {
      cells.emplace(codec->Unpack(key), measure);
    });
    return cells;
  }

  /// Analytic footprint of the live container, for the algorithms'
  /// transient-memory accounting.
  std::int64_t MemoryBytes() const {
    return codec != nullptr ? packed.MemoryBytes() : CellMapMemoryBytes(keyed);
  }

  /// Keep-first merge (popular-path drilling: the same cell reached under
  /// two parents has the same total; the first stays). Adopts `other`'s
  /// representation when this map is empty.
  void MergeKeepFirst(const CuboidCells& other) {
    if (other.codec != nullptr) {
      codec = other.codec;  // both sides scan the same tree
      other.packed.ForEach([&](std::uint64_t key, const Isb& measure) {
        packed.EmplaceIfAbsent(key, measure);
      });
      return;
    }
    for (const auto& [key, measure] : other.keyed) keyed.emplace(key, measure);
  }
};

/// Computes every cell of `cuboid` by H-cubing: pick the cuboid attribute
/// deepest in the tree order, traverse its header-table node-link chains,
/// read the remaining attribute values off each node's root path, and
/// aggregate subtree measures with Theorem 3.2. The all-star cuboid (no
/// attributes) yields the single apex cell.
///
/// Works on both tree configurations: with stored non-leaf measures each
/// chain node contributes in O(1); without, the node's subtree is a
/// contiguous leaf-range fold (the m/o configuration — compute everything,
/// store only at leaves). When the tree's packed-key codec is available the
/// per-cell accumulator is keyed by the 64-bit packed key (one root walk
/// builds it) and unpacked once per cell on return; the accumulation order
/// per cell is the chain order either way, so results are bit-identical to
/// the CellKey-keyed fallback.
CellMap ComputeCuboidCells(const HTree& tree, const CuboidLattice& lattice,
                           CuboidId cuboid);

/// ComputeCuboidCells without the CellMap materialization: the cells stay
/// in the kernel's accumulation container (packed flat map under the codec,
/// CellMap fallback otherwise). The per-cell measures are bitwise identical
/// to ComputeCuboidCells — same chain order, same folds — only the
/// container differs. The algorithms' hot loops consume this form.
CuboidCells ComputeCuboidCellsTransient(const HTree& tree,
                                        const CuboidLattice& lattice,
                                        CuboidId cuboid);

/// Cuboid-partitioned ComputeCuboidCellsTransient: the cells of every
/// cuboid in `cuboids`, one pool task per cuboid, returned positionally
/// aligned with the input. Safe because H-cubing only reads the tree, and
/// nothing changes it while a cube is filled from it. Serial (same
/// results) when `pool` is null.
std::vector<CuboidCells> ComputeCuboidCellsTransientPartitioned(
    const HTree& tree, const CuboidLattice& lattice,
    const std::vector<CuboidId>& cuboids, ThreadPool* pool);

/// Fold index of one cuboid, in CSR form: for every cell, the chain nodes
/// whose subtree measures ComputeCuboidCells folds into it, in the exact
/// order the kernel visits them (all of one cell's nodes share the
/// cuboid's deepest attribute value, so they live on one node-link chain
/// and the per-cell order is the chain order). Folding a cell's span
/// therefore reproduces the kernel's floating-point result bit for bit.
/// It is the incremental cube's one fold loop: a patch refolds only the
/// cells its changed leaves roll up into, an epoch roll refolds every
/// cell, and neither re-runs H-cubing. Node ids stay valid for the tree's
/// lifetime (the arena is immutable after Build) and survive
/// HTree::UpdateLeafMeasure and HTree::Rebase, which change values, not
/// structure.
///
/// Layout: the cells' keys in ascending order (64-bit packed keys when the
/// tree has a codec, CellKeys in canonical order otherwise), a uint32
/// offset array, and the node ids grouped by cell — three flat arrays,
/// 12 B per packed cell plus 4 B per chain node, and no per-cell heap
/// block. Cells are addressed by ordinal: Find binary-searches a key.
class CuboidFoldIndex {
 public:
  /// Indexes `cuboid` with the same traversal ComputeCuboidCells performs
  /// (one chain scan of the deepest attribute; the apex indexes the root).
  /// O(nodes at the deepest attribute's depth, plus sorting them by key).
  static CuboidFoldIndex Build(const HTree& tree, const CuboidLattice& lattice,
                               CuboidId cuboid);

  std::int64_t num_cells() const {
    return static_cast<std::int64_t>(offsets_.size()) - 1;
  }

  /// Ordinal of the cell `key` (O(log cells)), or -1 when the cuboid has
  /// no such cell. `tree` is the indexed tree: its codec packs the key.
  std::int64_t Find(const HTree& tree, const CellKey& key) const;

  /// Key of cell `cell`.
  CellKey KeyOf(const HTree& tree, std::int64_t cell) const;

  /// Measure of cell `cell`: its span's subtree measures accumulated in
  /// chain order. O(span length).
  Isb Fold(const HTree& tree, std::int64_t cell) const;

  /// Fold of every cell, by ordinal: `out` is resized to num_cells().
  void FoldAll(const HTree& tree, std::vector<Isb>* out) const;

  /// Footprint of the three arrays, for the cube-memo memory accounting.
  std::int64_t MemoryBytes() const;

 private:
  std::vector<std::uint64_t> packed_keys_;  // with a codec
  std::vector<CellKey> keys_;               // without one
  std::vector<std::uint32_t> offsets_;      // num_cells + 1
  std::vector<NodeId> nodes_;
};

/// Popular-path drilling kernel: computes the cells of `child_cuboid` that
/// lie under any of the `parent_cells` keys of `parent_cuboid` (the
/// exception cells being drilled). One batched chain scan of the child's
/// deepest attribute serves every parent cell at once; each chain node's
/// parent- and child-cuboid keys are read off its path in a single root
/// walk and the parent key filtered against `parent_cells` (a packed-key
/// set when the codec is available). Pre: parent_cuboid is an ancestor of
/// child_cuboid and the tree stores non-leaf measures (checked).
CellMap ComputeDrillChildren(const HTree& tree, const CuboidLattice& lattice,
                             CuboidId parent_cuboid,
                             const CellMap& parent_cells,
                             CuboidId child_cuboid);

/// ComputeDrillChildren in the kernel's accumulation form (see
/// ComputeCuboidCellsTransient); popular-path drilling merges and filters
/// these without materializing a CellMap per drill step.
CuboidCells ComputeDrillChildrenTransient(const HTree& tree,
                                          const CuboidLattice& lattice,
                                          CuboidId parent_cuboid,
                                          const CellMap& parent_cells,
                                          CuboidId child_cuboid);

/// Cells of a tree-prefix cuboid read directly from the nodes at its depth
/// (popular-path Step 2: "aggregated regression points stored in the
/// nonleaf nodes"). `depth` is the number of attributes consumed; the
/// cuboid's attributes must be exactly the deepest level of each dimension
/// introduced in the first `depth` tree attributes (checked).
/// Pre: the tree stores non-leaf measures (checked).
CellMap ReadPrefixCuboidCells(const HTree& tree, const CuboidLattice& lattice,
                              CuboidId cuboid, int depth);

/// ReadPrefixCuboidCells in the kernel's accumulation form (see
/// ComputeCuboidCellsTransient).
CuboidCells ReadPrefixCuboidCellsTransient(const HTree& tree,
                                           const CuboidLattice& lattice,
                                           CuboidId cuboid, int depth);

}  // namespace regcube

#endif  // REGCUBE_HTREE_HTREE_CUBING_H_
