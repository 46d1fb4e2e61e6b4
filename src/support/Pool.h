//===- Pool.h - Bump arena and free-list object pool ------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Allocation fast path for the dependency graph's hot bookkeeping
/// (DESIGN.md "Parallel propagation", allocation section). Edge churn
/// dominates beginExecution/endExecution — every re-execution records the
/// reads it makes anew and retracts the ones it no longer makes — so Edge
/// objects come from Pool<Edge>: a type-local free list layered over
/// BumpArena chunks.
/// Allocation is a pointer bump or a free-list pop; deallocation is a
/// free-list push; nothing is returned to the system until the pool dies.
///
/// BumpArena is also usable on its own for per-node bookkeeping whose
/// lifetime matches the graph's.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_SUPPORT_POOL_H
#define ALPHONSE_SUPPORT_POOL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace alphonse {

/// Chunked bump allocator: allocate-only, everything freed at destruction.
class BumpArena {
public:
  explicit BumpArena(size_t ChunkBytes = 64 * 1024)
      : ChunkBytes(ChunkBytes) {}

  BumpArena(const BumpArena &) = delete;
  BumpArena &operator=(const BumpArena &) = delete;

  /// Returns \p Size bytes aligned to \p Align (never null; grows a new
  /// chunk when the current one is exhausted).
  void *allocate(size_t Size, size_t Align) {
    uintptr_t P = (Cur + (Align - 1)) & ~static_cast<uintptr_t>(Align - 1);
    if (P + Size > End) {
      size_t Want = Size + Align > ChunkBytes ? Size + Align : ChunkBytes;
      Chunks.push_back(std::make_unique<std::byte[]>(Want));
      TotalBytes += Want;
      Cur = reinterpret_cast<uintptr_t>(Chunks.back().get());
      End = Cur + Want;
      P = (Cur + (Align - 1)) & ~static_cast<uintptr_t>(Align - 1);
    }
    Cur = P + Size;
    return reinterpret_cast<void *>(P);
  }

  /// Typed allocation + construction.
  template <typename T, typename... Args> T *create(Args &&...A) {
    return new (allocate(sizeof(T), alignof(T))) T(std::forward<Args>(A)...);
  }

  size_t bytesReserved() const { return TotalBytes; }
  size_t numChunks() const { return Chunks.size(); }

private:
  size_t ChunkBytes;
  std::vector<std::unique_ptr<std::byte[]>> Chunks;
  uintptr_t Cur = 0;
  uintptr_t End = 0;
  size_t TotalBytes = 0;
};

/// Free-list object pool over a BumpArena. T must be trivially
/// destructible (slots are recycled without running destructors) and at
/// least pointer-sized (the free list lives inside dead slots).
template <typename T> class Pool {
  static_assert(sizeof(T) >= sizeof(void *),
                "pooled objects must fit a free-list link");
  static_assert(std::is_trivially_destructible_v<T>,
                "pooled objects are recycled without destruction");

public:
  Pool() = default;

  Pool(const Pool &) = delete;
  Pool &operator=(const Pool &) = delete;

  /// True when the next create() will be served from the free list.
  bool hasFree() const { return FreeList != nullptr; }

  /// Allocates and value-initializes one T.
  T *create() {
    if (FreeList) {
      void *Slot = FreeList;
      FreeList = *static_cast<void **>(Slot);
      ++NumReused;
      return new (Slot) T();
    }
    ++NumCreated;
    return new (Arena.allocate(sizeof(T), alignof(T))) T();
  }

  /// Returns \p P's slot to the free list.
  void destroy(T *P) {
    *reinterpret_cast<void **>(P) = FreeList;
    FreeList = P;
  }

  /// Slots ever bump-allocated from the arena.
  uint64_t numCreated() const { return NumCreated; }
  /// Allocations served by recycling a freed slot.
  uint64_t numReused() const { return NumReused; }

  const BumpArena &arena() const { return Arena; }

private:
  BumpArena Arena;
  void *FreeList = nullptr;
  uint64_t NumCreated = 0;
  uint64_t NumReused = 0;
};

/// Chunked, index-addressable slab: the storage behind the graph's dense
/// NodeId/EdgeId tables (DESIGN.md "Engine layering and handle-based
/// storage"). Slots are addressed by dense 32-bit indices, live in
/// fixed-size chunks whose addresses never move (unlike std::vector, a
/// reference taken before a push() stays valid afterwards), and the chunk
/// directory is an array of atomic pointers, so readers may resolve
/// indices lock-free while one externally serialized writer grows the
/// slab. Slots are value-initialized; recycling is the owner's job (the
/// tables keep explicit free lists with generation counters).
template <typename T> class Slab {
public:
  static constexpr uint32_t ChunkSlotsLog2 = 8;
  static constexpr uint32_t ChunkSlots = 1u << ChunkSlotsLog2;
  /// Geometry covers the full 24-bit handle index space.
  static constexpr uint32_t MaxChunks = 1u << (24 - ChunkSlotsLog2);
  /// Directory entries allocated up front (covers the first 4096 slots —
  /// enough for every single-session workload measured in EXPERIMENTS.md
  /// without a single grow).
  static constexpr uint32_t InitialDirChunks = 16;

  Slab() { Dir.store(newDir(InitialDirChunks), std::memory_order_relaxed); }

  ~Slab() {
    std::atomic<T *> *D = Dir.load(std::memory_order_relaxed);
    for (uint32_t I = 0; I < DirCap; ++I)
      delete[] D[I].load(std::memory_order_relaxed);
    delete[] D;
    for (std::atomic<T *> *Old : Retired)
      delete[] Old;
  }

  Slab(const Slab &) = delete;
  Slab &operator=(const Slab &) = delete;

  /// Slots ever appended (free slots included; never shrinks).
  uint32_t size() const { return Count.load(std::memory_order_acquire); }

  T &operator[](uint32_t Index) {
    return Dir.load(std::memory_order_acquire)[Index >> ChunkSlotsLog2]
        .load(std::memory_order_acquire)[Index & (ChunkSlots - 1)];
  }
  const T &operator[](uint32_t Index) const {
    return Dir.load(std::memory_order_acquire)[Index >> ChunkSlotsLog2]
        .load(std::memory_order_acquire)[Index & (ChunkSlots - 1)];
  }

  /// Appends one value-initialized slot and returns its index. Writer-side
  /// only: calls must be externally serialized (the graph's state lock).
  uint32_t push() {
    uint32_t Index = Count.load(std::memory_order_relaxed);
    uint32_t Chunk = Index >> ChunkSlotsLog2;
    if ((Index & (ChunkSlots - 1)) == 0) {
      if (Chunk == DirCap)
        growDir();
      Dir.load(std::memory_order_relaxed)[Chunk].store(
          new T[ChunkSlots](), std::memory_order_release);
      ++NumChunks;
    }
    Count.store(Index + 1, std::memory_order_release);
    return Index;
  }

  /// Bytes reserved by the allocated chunks (slab payload only).
  size_t bytesReserved() const {
    return static_cast<size_t>(NumChunks) * ChunkSlots * sizeof(T);
  }

private:
  static std::atomic<T *> *newDir(uint32_t Cap) {
    std::atomic<T *> *D = new std::atomic<T *>[Cap];
    for (uint32_t I = 0; I < Cap; ++I)
      D[I].store(nullptr, std::memory_order_relaxed);
    return D;
  }

  /// Doubles the chunk directory. The old directory is retired, not
  /// freed: a concurrent reader that loaded Dir just before the swap may
  /// still be indexing into it, and every index it can legally hold
  /// (published before the grow) resolves identically through either
  /// directory — chunks never move. Retired directories are reclaimed at
  /// destruction. Readers needing an index minted after the grow
  /// observed its publication, which happened after the release store of
  /// the new directory, so their acquire load of Dir sees the new one.
  void growDir() {
    uint32_t NewCap = DirCap * 2 < MaxChunks ? DirCap * 2 : MaxChunks;
    std::atomic<T *> *New = newDir(NewCap);
    std::atomic<T *> *Old = Dir.load(std::memory_order_relaxed);
    for (uint32_t I = 0; I < DirCap; ++I)
      New[I].store(Old[I].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    Retired.push_back(Old);
    Dir.store(New, std::memory_order_release);
    DirCap = NewCap;
  }

  /// The chunk directory is heap-allocated and grown on demand (doubling
  /// from InitialDirChunks) rather than sized for the full 24-bit index
  /// space up front: a graph's baseline footprint is what bounds how many
  /// embedded engines one process can hold (DESIGN.md "Session service"),
  /// and an embedded full-space directory would cost 512 KB per slab at
  /// this chunk granularity. Resolution pays one extra dependent load
  /// over an embedded array; measured against bench_space/bench_overhead
  /// this is inside run-to-run noise.
  std::atomic<std::atomic<T *> *> Dir;
  std::atomic<uint32_t> Count{0};
  uint32_t DirCap = InitialDirChunks;
  uint32_t NumChunks = 0;
  std::vector<std::atomic<T *> *> Retired;
};

} // namespace alphonse

#endif // ALPHONSE_SUPPORT_POOL_H
