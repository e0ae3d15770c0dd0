#include "factor/distributed_factor.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "linalg/kernels.hpp"
#include "sim/cost_model.hpp"
#include "support/error.hpp"

namespace spc {
namespace {

struct Op {
  enum Kind { kComplete, kMod, kApply } kind;
  i64 id;
};

struct Aggregate {
  block_id dest = 0;
  idx from_proc = 0;
  i64 remaining = 0;
  DenseMatrix buffer;
};

// One processor's private memory: owned blocks plus received copies, with a
// remaining-use count for received blocks so copies are freed after their
// last local use (as a real fan-out implementation does).
struct ProcStore {
  std::unordered_map<i64, DenseMatrix> blocks;
  std::unordered_map<i64, i64> uses_left;  // received blocks only
  i64 received_entries = 0;
  i64 peak_received_entries = 0;
};

class DistributedExecutor {
 public:
  DistributedExecutor(const SymSparse& a, const BlockStructure& bs,
                      const TaskGraph& tg, const BlockMap& map,
                      const DomainDecomposition& dom)
      : bs_(bs), tg_(tg), map_(map), dom_(dom) {
    nb_ = bs.num_block_cols();
    num_blocks_ = tg.num_blocks();
    num_procs_ = map.grid.size();
    setup(a);
  }

  DistributedFactorResult run();

 private:
  void setup(const SymSparse& a) {
    owner_.resize(static_cast<std::size_t>(num_blocks_));
    for (block_id b = 0; b < num_blocks_; ++b) {
      owner_[static_cast<std::size_t>(b)] =
          map_.owner(tg_.row_of_block[static_cast<std::size_t>(b)],
                     tg_.col_of_block[static_cast<std::size_t>(b)], dom_);
    }
    stores_.resize(static_cast<std::size_t>(num_procs_));

    // Allocate owned blocks and scatter A into them.
    for (idx j = 0; j < nb_; ++j) {
      stores_[static_cast<std::size_t>(owner_[static_cast<std::size_t>(j)])]
          .blocks[j]
          .resize(bs_.part.width(j), bs_.part.width(j));
      for (i64 e = bs_.blkptr[j]; e < bs_.blkptr[j + 1]; ++e) {
        const block_id b = nb_ + e;
        stores_[static_cast<std::size_t>(owner_[static_cast<std::size_t>(b)])]
            .blocks[b]
            .resize(bs_.blkcnt[e], bs_.part.width(j));
      }
    }
    const auto& ptr = a.col_ptr();
    const auto& rowv = a.row_idx();
    const auto& val = a.values();
    for (idx c = 0; c < a.num_rows(); ++c) {
      const idx j = bs_.part.block_of_col[c];
      const idx cj = c - bs_.part.first_col[j];
      for (i64 k = ptr[static_cast<std::size_t>(c)];
           k < ptr[static_cast<std::size_t>(c) + 1]; ++k) {
        const idx r = rowv[static_cast<std::size_t>(k)];
        block_id b;
        idx ri;
        if (bs_.part.block_of_col[r] == j) {
          b = j;
          ri = r - bs_.part.first_col[j];
        } else {
          const i64 e = bs_.find_entry(j, bs_.part.block_of_col[r]);
          SPC_CHECK(e != kNone, "distributed: A entry outside structure");
          const idx* rows = bs_.entry_rows_begin(e);
          const idx* it = std::lower_bound(rows, bs_.entry_rows_end(e), r);
          b = nb_ + e;
          ri = static_cast<idx>(it - rows);
        }
        stores_[static_cast<std::size_t>(owner_[static_cast<std::size_t>(b)])]
            .blocks[b](ri, cj) = val[static_cast<std::size_t>(k)];
      }
    }

    // Dependency machinery (mirrors the Paragon simulator).
    const i64 num_mods = static_cast<i64>(tg_.mods.size());
    mod_exec_.resize(static_cast<std::size_t>(num_mods));
    mod_pending_.resize(static_cast<std::size_t>(num_mods));
    mod_agg_.assign(static_cast<std::size_t>(num_mods), kNone);
    deps_.assign(static_cast<std::size_t>(num_blocks_), 0);
    std::unordered_map<i64, i64> agg_index;
    for (i64 m = 0; m < num_mods; ++m) {
      const BlockMod& mod = tg_.mods[static_cast<std::size_t>(m)];
      const bool domain_src = dom_.is_domain_col(mod.col_k);
      const idx dest_owner = owner_[static_cast<std::size_t>(mod.dest)];
      const idx exec = domain_src ? dom_.domain_proc[mod.col_k] : dest_owner;
      mod_exec_[static_cast<std::size_t>(m)] = exec;
      mod_pending_[static_cast<std::size_t>(m)] = mod.src_a == mod.src_b ? 1 : 2;
      if (domain_src && exec != dest_owner) {
        const i64 key = mod.dest * static_cast<i64>(num_procs_) + exec;
        auto [it, inserted] = agg_index.try_emplace(key, static_cast<i64>(aggs_.size()));
        if (inserted) {
          aggs_.push_back(Aggregate{mod.dest, exec, 0, {}});
          ++deps_[static_cast<std::size_t>(mod.dest)];
        }
        mod_agg_[static_cast<std::size_t>(m)] = it->second;
        ++aggs_[static_cast<std::size_t>(it->second)].remaining;
      } else {
        ++deps_[static_cast<std::size_t>(mod.dest)];
      }
    }
    for (block_id b = nb_; b < num_blocks_; ++b) ++deps_[static_cast<std::size_t>(b)];

    src_ptr_.assign(static_cast<std::size_t>(num_blocks_) + 1, 0);
    for (const BlockMod& mod : tg_.mods) {
      ++src_ptr_[static_cast<std::size_t>(mod.src_a) + 1];
      if (mod.src_b != mod.src_a) ++src_ptr_[static_cast<std::size_t>(mod.src_b) + 1];
    }
    for (block_id b = 0; b < num_blocks_; ++b) {
      src_ptr_[static_cast<std::size_t>(b) + 1] += src_ptr_[static_cast<std::size_t>(b)];
    }
    src_mods_.resize(static_cast<std::size_t>(src_ptr_[static_cast<std::size_t>(num_blocks_)]));
    std::vector<i64> cursor(src_ptr_.begin(), src_ptr_.end() - 1);
    for (i64 m = 0; m < num_mods; ++m) {
      const BlockMod& mod = tg_.mods[static_cast<std::size_t>(m)];
      src_mods_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(mod.src_a)]++)] = m;
      if (mod.src_b != mod.src_a) {
        src_mods_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(mod.src_b)]++)] = m;
      }
    }
    complete_.assign(static_cast<std::size_t>(num_blocks_), false);
  }

  // Fetches a block that must be present in proc p's private store.
  DenseMatrix& local_block(idx p, block_id b) {
    auto it = stores_[static_cast<std::size_t>(p)].blocks.find(b);
    SPC_CHECK(it != stores_[static_cast<std::size_t>(p)].blocks.end(),
              "distributed: processor touched a block it neither owns nor received "
              "(protocol violation)");
    return it->second;
  }

  // Number of local uses block b has at proc q (BMOD source uses + BDIV uses
  // of a diagonal block).
  i64 uses_at(idx q, block_id b) const {
    i64 uses = 0;
    for (i64 k = src_ptr_[static_cast<std::size_t>(b)];
         k < src_ptr_[static_cast<std::size_t>(b) + 1]; ++k) {
      if (mod_exec_[static_cast<std::size_t>(src_mods_[static_cast<std::size_t>(k)])] == q) {
        ++uses;
      }
    }
    if (b < nb_) {
      const idx col = static_cast<idx>(b);
      for (i64 e = bs_.blkptr[col]; e < bs_.blkptr[col + 1]; ++e) {
        if (owner_[static_cast<std::size_t>(nb_ + e)] == q) ++uses;
      }
    }
    return uses;
  }

  void consume_use(idx q, block_id b) {
    ProcStore& st = stores_[static_cast<std::size_t>(q)];
    auto it = st.uses_left.find(b);
    if (it == st.uses_left.end()) return;  // owned block: never freed
    if (--it->second == 0) {
      auto bit = st.blocks.find(b);
      st.received_entries -=
          static_cast<i64>(bit->second.rows()) * bit->second.cols();
      st.blocks.erase(bit);
      st.uses_left.erase(it);
    }
  }

  // Block b becomes available at q (local completion or received copy).
  void available(idx q, block_id b) {
    for (i64 k = src_ptr_[static_cast<std::size_t>(b)];
         k < src_ptr_[static_cast<std::size_t>(b) + 1]; ++k) {
      const i64 m = src_mods_[static_cast<std::size_t>(k)];
      if (mod_exec_[static_cast<std::size_t>(m)] != q) continue;
      if (--mod_pending_[static_cast<std::size_t>(m)] == 0) {
        queue_.push_back(Op{Op::kMod, m});
      }
    }
    if (b < nb_) {
      const idx col = static_cast<idx>(b);
      for (i64 e = bs_.blkptr[col]; e < bs_.blkptr[col + 1]; ++e) {
        const block_id ob = nb_ + e;
        if (owner_[static_cast<std::size_t>(ob)] == q) dec_deps(ob);
      }
    }
  }

  void dec_deps(block_id b) {
    SPC_CHECK(deps_[static_cast<std::size_t>(b)] > 0, "distributed: deps underflow");
    if (--deps_[static_cast<std::size_t>(b)] == 0) {
      queue_.push_back(Op{Op::kComplete, b});
    }
  }

  void send_block(idx from, idx to, block_id b) {
    ProcStore& st = stores_[static_cast<std::size_t>(to)];
    const DenseMatrix& src = local_block(from, b);
    st.blocks.emplace(b, src);  // the deep copy IS the message
    st.uses_left.emplace(b, uses_at(to, b));
    st.received_entries += static_cast<i64>(src.rows()) * src.cols();
    st.peak_received_entries = std::max(st.peak_received_entries, st.received_entries);
    ++messages_;
    bytes_ += block_bytes(src.rows(), src.cols());
    available(to, b);
  }

  void on_complete(block_id b) {
    const idx p = owner_[static_cast<std::size_t>(b)];
    DenseMatrix& blk = local_block(p, b);
    if (b < nb_) {
      potrf_lower(blk);  // BFAC
    } else {
      const idx col = tg_.col_of_block[static_cast<std::size_t>(b)];
      trsm_right_ltrans(local_block(p, col), blk);  // BDIV (diag from p's store)
      consume_use(p, col);
    }
    complete_[static_cast<std::size_t>(b)] = true;

    // Consumers: exec procs of mods sourced by b; owners of the column's
    // off-diagonal blocks when b is a diagonal block.
    ++stamp_;
    proc_stamp_.resize(static_cast<std::size_t>(num_procs_), 0);
    proc_stamp_[static_cast<std::size_t>(p)] = stamp_;
    available(p, b);
    auto consider = [&](idx q) {
      if (proc_stamp_[static_cast<std::size_t>(q)] == stamp_) return;
      proc_stamp_[static_cast<std::size_t>(q)] = stamp_;
      send_block(p, q, b);
    };
    for (i64 k = src_ptr_[static_cast<std::size_t>(b)];
         k < src_ptr_[static_cast<std::size_t>(b) + 1]; ++k) {
      consider(mod_exec_[static_cast<std::size_t>(src_mods_[static_cast<std::size_t>(k)])]);
    }
    if (b < nb_) {
      const idx col = static_cast<idx>(b);
      for (i64 e = bs_.blkptr[col]; e < bs_.blkptr[col + 1]; ++e) {
        consider(owner_[static_cast<std::size_t>(nb_ + e)]);
      }
    }
  }

  void on_mod(i64 m) {
    const BlockMod& mod = tg_.mods[static_cast<std::size_t>(m)];
    const idx p = mod_exec_[static_cast<std::size_t>(m)];
    const DenseMatrix& src_i = local_block(p, mod.src_a);
    const DenseMatrix& src_j = local_block(p, mod.src_b);
    const i64 agg = mod_agg_[static_cast<std::size_t>(m)];
    if (agg == kNone) {
      SPC_CHECK(owner_[static_cast<std::size_t>(mod.dest)] == p,
                "distributed: direct BMOD at a non-owner (protocol violation)");
      apply_block_mod_to(bs_, mod, src_i.data(), src_j.data(),
                         local_block(p, mod.dest).data(), update_, rel_rows_);
      consume_sources(p, mod);
      dec_deps(mod.dest);
    } else {
      Aggregate& a = aggs_[static_cast<std::size_t>(agg)];
      if (a.buffer.empty()) {
        const idx rows = tg_.rows_of_block[static_cast<std::size_t>(mod.dest)];
        const idx cols =
            bs_.part.width(tg_.col_of_block[static_cast<std::size_t>(mod.dest)]);
        a.buffer.resize(rows, cols);
      }
      apply_block_mod_to(bs_, mod, src_i.data(), src_j.data(), a.buffer.data(),
                         update_, rel_rows_);
      consume_sources(p, mod);
      if (--a.remaining == 0) queue_.push_back(Op{Op::kApply, agg});
    }
  }

  void consume_sources(idx p, const BlockMod& mod) {
    consume_use(p, mod.src_a);
    if (mod.src_b != mod.src_a) consume_use(p, mod.src_b);
  }

  void on_apply(i64 agg_id) {
    Aggregate& a = aggs_[static_cast<std::size_t>(agg_id)];
    const idx p = owner_[static_cast<std::size_t>(a.dest)];
    // The aggregate buffer travels as one message of the block's shape.
    ++messages_;
    ++aggregates_;
    bytes_ += block_bytes(a.buffer.rows(), a.buffer.cols());
    local_block(p, a.dest).axpy(1.0, a.buffer);
    a.buffer.resize(0, 0);
    dec_deps(a.dest);
  }

  const BlockStructure& bs_;
  const TaskGraph& tg_;
  const BlockMap& map_;
  const DomainDecomposition& dom_;
  idx nb_ = 0;
  i64 num_blocks_ = 0;
  idx num_procs_ = 0;

  std::vector<idx> owner_;
  std::vector<ProcStore> stores_;
  std::vector<i64> deps_;
  std::vector<bool> complete_;
  std::vector<idx> mod_exec_;
  std::vector<i64> mod_pending_;
  std::vector<i64> mod_agg_;
  std::vector<Aggregate> aggs_;
  std::vector<i64> src_ptr_;
  std::vector<i64> src_mods_;
  std::deque<Op> queue_;
  std::vector<i64> proc_stamp_;
  i64 stamp_ = 0;
  i64 messages_ = 0;
  i64 bytes_ = 0;
  i64 aggregates_ = 0;
  UpdateScratch update_;
  std::vector<idx> rel_rows_;
};

DistributedFactorResult DistributedExecutor::run() {
  for (block_id b = 0; b < num_blocks_; ++b) {
    if (deps_[static_cast<std::size_t>(b)] == 0) queue_.push_back(Op{Op::kComplete, b});
  }
  while (!queue_.empty()) {
    const Op op = queue_.front();
    queue_.pop_front();
    switch (op.kind) {
      case Op::kComplete: on_complete(op.id); break;
      case Op::kMod: on_mod(op.id); break;
      case Op::kApply: on_apply(op.id); break;
    }
  }
  for (block_id b = 0; b < num_blocks_; ++b) {
    SPC_CHECK(complete_[static_cast<std::size_t>(b)],
              "distributed: deadlock — block never completed");
  }

  DistributedFactorResult result;
  result.factor.structure = &bs_;
  result.factor.diag.resize(static_cast<std::size_t>(nb_));
  result.factor.offdiag.resize(static_cast<std::size_t>(bs_.num_entries()));
  for (block_id b = 0; b < num_blocks_; ++b) {
    DenseMatrix& blk = local_block(owner_[static_cast<std::size_t>(b)], b);
    if (b < nb_) {
      result.factor.diag[static_cast<std::size_t>(b)] = std::move(blk);
    } else {
      result.factor.offdiag[static_cast<std::size_t>(b - nb_)] = std::move(blk);
    }
  }
  result.messages = messages_;
  result.bytes = bytes_;
  result.aggregates = aggregates_;
  for (const ProcStore& st : stores_) {
    result.peak_received_entries =
        std::max(result.peak_received_entries, st.peak_received_entries);
  }
  return result;
}

}  // namespace

DistributedFactorResult distributed_fanout_factorize(const SymSparse& a,
                                                     const BlockStructure& bs,
                                                     const TaskGraph& tg,
                                                     const BlockMap& map,
                                                     const DomainDecomposition& dom) {
  DistributedExecutor exec(a, bs, tg, map, dom);
  return exec.run();
}

}  // namespace spc
