#ifndef REGCUBE_CORE_MEMBER_INDEX_H_
#define REGCUBE_CORE_MEMBER_INDEX_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "regcube/cube/cell.h"
#include "regcube/cube/cuboid.h"
#include "regcube/cube/packed_key.h"

namespace regcube {

/// The per-shard, per-cuboid roll-up index behind sublinear point queries:
/// for each cuboid of the lattice, a hash map from projected cell key to
/// the ids of the m-layer cells that roll up into it. Membership is a pure
/// function of the cell *keys* (frames never move a cell between cuboid
/// cells, and cells are never erased), so the index is maintained with one
/// append per (new cell, active cuboid) at ingest time and never needs
/// per-write invalidation: revision coherence comes from resolving member
/// ids back through the owning engine's live cell states, whose published
/// frames are refreshed per-cell against the same dirty bookkeeping every
/// gather uses.
///
/// Cuboid maps activate lazily: the first point query of a cuboid pays one
/// O(cells) projection pass (under the shard lock), after which every
/// probe is O(matching members) and ingest keeps the map current. Cuboids
/// never probed cost nothing. Point queries are the only probers; the cube
/// memo indexes its own H-tree (CuboidFoldIndex).
///
/// When the schema's packed-key codec holds, each cuboid map keys its
/// entries by the 64-bit packed projection instead of the CellKey (half
/// the key bytes, cheap hashing). A map that ever meets a key it cannot
/// pack (out-of-cardinality values from a key mapper) demotes itself to
/// the CellKey representation once — member lists and their order carry
/// over untouched, so probes see no difference.
///
/// Not thread-safe; the owning StreamCubeEngine is single-threaded behind
/// its shard mutex, like every other engine structure.
class MemberIndex {
 public:
  /// Dense per-shard cell id: position in the engine's creation-order cell
  /// list. Cells are never erased, so ids are stable for the engine's
  /// lifetime.
  using MemberId = std::uint32_t;

  /// `lattice` is not owned and must outlive the index.
  explicit MemberIndex(const CuboidLattice* lattice);

  /// True iff `cuboid`'s roll-up map has been built.
  bool active(CuboidId cuboid) const {
    return maps_[static_cast<size_t>(cuboid)].has_value();
  }

  /// Creates `cuboid`'s (empty) map; the caller folds the existing cell
  /// population in via AddCellTo. No-op if already active.
  void Activate(CuboidId cuboid);

  /// Folds a newly created cell into every active cuboid map — the ingest
  /// half of maintenance, O(active cuboids) per new cell (zero-cost while
  /// nothing is active: only the active id list is walked).
  void AddCell(const CellKey& m_key, MemberId id);

  /// Folds one cell into one (active) cuboid map — the activation
  /// backfill.
  void AddCellTo(CuboidId cuboid, const CellKey& m_key, MemberId id);

  /// Member ids rolling up into `key` of `cuboid`, in cell-creation order;
  /// nullptr when no member matches. Pre: active(cuboid).
  const std::vector<MemberId>* MembersOf(CuboidId cuboid,
                                         const CellKey& key) const;

  /// Analytic footprint (maps + entries + member ids), maintained
  /// incrementally — the "index.members" figure.
  std::int64_t MemoryBytes() const { return bytes_; }

 private:
  struct CuboidMap {
    bool packed = false;  // which representation is live
    std::unordered_map<std::uint64_t, std::vector<MemberId>> by_packed;
    std::unordered_map<CellKey, std::vector<MemberId>, CellKeyHash> by_key;
  };

  void Fold(CuboidId cuboid, CuboidMap& map, const CellKey& m_key,
            MemberId id);
  void Demote(CuboidMap& map);

  const CuboidLattice* lattice_;
  std::optional<PackedKeyCodec> codec_;
  std::vector<std::optional<CuboidMap>> maps_;  // by cuboid id
  std::vector<CuboidId> active_;  // cuboids with a map, in activation order
  std::int64_t bytes_ = 0;
};

}  // namespace regcube

#endif  // REGCUBE_CORE_MEMBER_INDEX_H_
