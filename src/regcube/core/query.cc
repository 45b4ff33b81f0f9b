#include "regcube/core/query.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <deque>
#include <unordered_set>

#include "regcube/common/logging.h"
#include "regcube/common/str.h"
#include "regcube/regression/aggregate.h"

namespace regcube {

namespace {

// Answer order of every cell list: cuboid, then canonical key. A total
// order, so the same cube returns the same list whatever order its hash
// maps were filled in (a patched memo vs a rebuilt one).
bool CellResultCanonicalLess(const CellResult& a, const CellResult& b) {
  if (a.cuboid != b.cuboid) return a.cuboid < b.cuboid;
  return CanonicalKeyLess(a.key, b.key);
}

// Canonical-order codes for the keys of one cuboid: the key's values
// concatenated into one integer, dimension 0 most significant, each in a
// field as wide as its level's cardinality needs (a star, shared by every
// key of the cuboid, takes none). Radix-sorting these codes costs a few
// linear passes where comparing keys costs a branchy n log n, which
// matters for ExceptionsAt on a cuboid with thousands of exceptions.
class CanonicalKeyPacker {
 public:
  CanonicalKeyPacker(const CubeSchema& schema, const LayerSpec& spec)
      : dims_(schema.num_dims()) {
    int bits = 0;
    for (int d = 0; d < dims_; ++d) {
      const int level = spec[static_cast<size_t>(d)];
      if (level == 0) {
        width_[static_cast<size_t>(d)] = kStar;  // no field
        continue;
      }
      const auto card = static_cast<std::uint64_t>(
          schema.dim(d).hierarchy().Cardinality(level));
      // Value ids are 32-bit, so no field needs more than 32 bits.
      width_[static_cast<size_t>(d)] =
          std::min(static_cast<int>(std::bit_width(card - 1)), 32);
      bits += width_[static_cast<size_t>(d)];
    }
    bits_ = bits;
  }

  /// Significant low bits of every code.
  int bits() const { return bits_; }

  /// False when the fields exceed 64 bits or a key does not match them (a
  /// value outside its level, a value where the cuboid has a star); the
  /// caller then compares keys instead.
  bool Pack(const CellKey& key, std::uint64_t* code) const {
    if (bits_ > 64 || key.num_dims() != dims_) return false;
    std::uint64_t out = 0;
    for (int d = 0; d < dims_; ++d) {
      const int w = width_[static_cast<size_t>(d)];
      const ValueId v = key[d];
      if (w == kStar) {
        if (v != kStarValue) return false;
        continue;
      }
      if (w < 32 && (v >> w) != 0) return false;
      out = (out << w) | v;
    }
    *code = out;
    return true;
  }

 private:
  static constexpr int kStar = -1;

  int dims_;
  int bits_ = 0;
  std::array<int, kMaxDims> width_{};
};

using CodedCell = std::pair<std::uint64_t, const CellMap::value_type*>;

// Sorts by code: LSD radix over the codes' low `bits`, one byte a pass.
void RadixSortByCode(std::vector<CodedCell>* items, int bits) {
  std::vector<CodedCell> scratch(items->size());
  for (int shift = 0; shift < bits; shift += 8) {
    std::array<std::uint32_t, 257> start{};
    for (const CodedCell& item : *items) {
      ++start[((item.first >> shift) & 0xFF) + 1];
    }
    for (size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
    for (const CodedCell& item : *items) {
      scratch[start[(item.first >> shift) & 0xFF]++] = item;
    }
    items->swap(scratch);
  }
}

}  // namespace

CubeView::CubeView(const RegressionCube& cube, const ExceptionPolicy& policy)
    : cube_(&cube), policy_(&policy) {}

ExceptionPolicy::CellTest CubeView::ExceptionTestFor(CuboidId cuboid) const {
  return policy_->TestFor(cuboid, SpecDepth(cube_->lattice().spec(cuboid)));
}

Result<Isb> CubeView::GetCell(CuboidId cuboid, const CellKey& key) const {
  const CellMap* cells = cube_->CellsAt(cuboid);
  if (cells != nullptr) {
    auto it = cells->find(key);
    if (it != cells->end()) return it->second;
  }
  return Status::NotFound(StrPrintf("cell %s of cuboid %s was not retained",
                                    key.ToString().c_str(),
                                    cube_->lattice().CuboidName(cuboid).c_str()));
}

Result<Isb> CubeView::ComputeCellOnTheFly(CuboidId cuboid,
                                          const CellKey& key) const {
  const CuboidLattice& lattice = cube_->lattice();
  Isb acc;
  bool found = false;
  for (const auto& [m_key, isb] : cube_->m_layer()) {
    if (lattice.ProjectMLayerKey(m_key, cuboid) == key) {
      AccumulateStandardDim(acc, isb);
      found = true;
    }
  }
  if (!found) {
    return Status::NotFound(StrPrintf(
        "cell %s of cuboid %s has no descendant m-layer cells",
        key.ToString().c_str(), lattice.CuboidName(cuboid).c_str()));
  }
  return acc;
}

std::vector<CellResult> CubeView::ExceptionsAt(CuboidId cuboid) const {
  std::vector<CellResult> out;
  const CellMap* cells = cube_->CellsAt(cuboid);
  if (cells == nullptr) return out;
  const ExceptionPolicy::CellTest is_exception = ExceptionTestFor(cuboid);
  const CanonicalKeyPacker packer(cube_->schema(),
                                  cube_->lattice().spec(cuboid));
  bool packed = true;
  std::vector<CodedCell> hits;
  hits.reserve(cells->size());
  for (const auto& entry : *cells) {
    if (!is_exception(entry.second)) continue;
    std::uint64_t code = 0;
    packed = packed && packer.Pack(entry.first, &code);
    hits.emplace_back(code, &entry);
  }
  // Codes are unique (the map's keys are, and packing is injective), so
  // sorting them alone orders the cells.
  if (packed) RadixSortByCode(&hits, packer.bits());
  out.reserve(hits.size());
  for (const auto& [code, entry] : hits) {
    out.push_back(CellResult{cuboid, entry->first, entry->second, true});
  }
  if (!packed) std::sort(out.begin(), out.end(), CellResultCanonicalLess);
  return out;
}

std::vector<CellResult> CubeView::DrillDown(CuboidId cuboid,
                                            const CellKey& key) const {
  const CuboidLattice& lattice = cube_->lattice();
  std::vector<CellResult> out;
  for (CuboidId child : lattice.DrillChildren(cuboid)) {
    const CellMap* cells = cube_->CellsAt(child);
    if (cells == nullptr) continue;
    const ExceptionPolicy::CellTest is_exception = ExceptionTestFor(child);
    for (const auto& [child_key, isb] : *cells) {
      if (!lattice.KeyIsDescendant(child_key, child, key, cuboid)) continue;
      if (!is_exception(isb)) continue;
      out.push_back(CellResult{child, child_key, isb, true});
    }
  }
  std::sort(out.begin(), out.end(), CellResultCanonicalLess);
  return out;
}

std::vector<CellResult> CubeView::ExceptionSupporters(
    CuboidId cuboid, const CellKey& key) const {
  std::vector<CellResult> out;
  std::unordered_set<CellRef, CellRefHash> seen;  // exact (cuboid, key)
  std::deque<CellRef> frontier;
  frontier.push_back(CellRef{cuboid, key});
  while (!frontier.empty()) {
    CellRef cur = frontier.front();
    frontier.pop_front();
    for (const CellResult& child : DrillDown(cur.cuboid, cur.key)) {
      if (!seen.insert(CellRef{child.cuboid, child.key}).second) continue;
      out.push_back(child);
      frontier.push_back(CellRef{child.cuboid, child.key});
    }
  }
  return out;
}

std::vector<CellResult> CubeView::TopExceptions(std::size_t n) const {
  struct Candidate {
    double strength;  // |slope|
    CuboidId cuboid;
    const CellMap::value_type* cell;
  };
  std::vector<Candidate> all;
  all.reserve(static_cast<size_t>(cube_->exceptions().total_cells()));
  for (CuboidId cuboid : cube_->exceptions().Cuboids()) {
    for (const auto& cell : *cube_->exceptions().CellsOf(cuboid)) {
      all.push_back(Candidate{std::fabs(cell.second.slope), cuboid, &cell});
    }
  }
  // A total order (ties at the cut go by cuboid, then canonical key), so
  // selecting the first n is the same as sorting everything and cutting.
  const size_t keep = std::min(n, all.size());
  const auto cut = all.begin() + static_cast<std::ptrdiff_t>(keep);
  std::partial_sort(all.begin(), cut, all.end(),
                    [](const Candidate& a, const Candidate& b) {
                      if (a.strength != b.strength) {
                        return a.strength > b.strength;
                      }
                      if (a.cuboid != b.cuboid) return a.cuboid < b.cuboid;
                      return CanonicalKeyLess(a.cell->first, b.cell->first);
                    });
  std::vector<CellResult> out;
  out.reserve(keep);
  for (size_t i = 0; i < keep; ++i) {
    out.push_back(CellResult{all[i].cuboid, all[i].cell->first,
                             all[i].cell->second, true});
  }
  return out;
}

std::string RenderCellWith(const CubeSchema& schema,
                           const CuboidLattice& lattice,
                           const CellResult& cell) {
  const LayerSpec& spec = lattice.spec(cell.cuboid);
  std::vector<std::string> parts;
  for (int d = 0; d < schema.num_dims(); ++d) {
    const int level = spec[static_cast<size_t>(d)];
    if (level == 0) {
      parts.push_back("*");
    } else {
      parts.push_back(schema.dim(d).hierarchy().Label(level, cell.key[d]));
    }
  }
  return StrPrintf("[%s] slope=%+.5f base=%.4f%s",
                   StrJoin(parts, ", ").c_str(), cell.isb.slope,
                   cell.isb.base, cell.is_exception ? "  (EXCEPTION)" : "");
}

std::string CubeView::RenderCell(const CellResult& cell) const {
  return RenderCellWith(cube_->schema(), cube_->lattice(), cell);
}

}  // namespace regcube
