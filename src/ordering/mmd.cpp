#include "ordering/mmd.hpp"

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>

#include "support/error.hpp"

namespace spc {
namespace {

// Doubly-linked degree lists over a bucket array, the classic structure for
// O(1) extraction of a minimum-degree variable. Each bucket is kept in
// descending rank order, where a rank is the time a variable was last keyed:
// a variable keyed late but listed early sits where head insertion at keying
// time would have put it. Inserting the newest rank is O(1).
class DegreeLists {
 public:
  DegreeLists(idx n, idx max_degree)
      : head_(static_cast<std::size_t>(max_degree) + 2, kNone),
        next_(static_cast<std::size_t>(n), kNone),
        prev_(static_cast<std::size_t>(n), kNone),
        deg_(static_cast<std::size_t>(n), kNone),
        rank_(static_cast<std::size_t>(n), 0),
        min_deg_(max_degree + 1) {}

  void insert(idx v, idx d, i64 rank) {
    idx before = kNone;
    idx after = head_[d];
    while (after != kNone && rank_[after] > rank) {
      before = after;
      after = next_[after];
    }
    deg_[v] = d;
    rank_[v] = rank;
    prev_[v] = before;
    next_[v] = after;
    if (before != kNone) {
      next_[before] = v;
    } else {
      head_[d] = v;
    }
    if (after != kNone) prev_[after] = v;
    min_deg_ = std::min(min_deg_, d);
  }

  void remove(idx v) {
    const idx d = deg_[v];
    if (prev_[v] != kNone) {
      next_[prev_[v]] = next_[v];
    } else {
      head_[d] = next_[v];
    }
    if (next_[v] != kNone) prev_[next_[v]] = prev_[v];
    deg_[v] = kNone;
  }

  bool contains(idx v) const { return deg_[v] != kNone; }
  idx degree(idx v) const { return deg_[v]; }
  i64 rank(idx v) const { return rank_[v]; }

  // Smallest degree with a non-empty bucket; kNone if all empty.
  idx find_min_degree() {
    while (min_deg_ < static_cast<idx>(head_.size()) && head_[min_deg_] == kNone) {
      ++min_deg_;
    }
    return min_deg_ < static_cast<idx>(head_.size()) ? min_deg_ : kNone;
  }

  idx bucket_head(idx d) const { return head_[d]; }
  idx bucket_next(idx v) const { return next_[v]; }

 private:
  std::vector<idx> head_;
  std::vector<idx> next_;
  std::vector<idx> prev_;
  std::vector<idx> deg_;  // kNone when not in any list
  std::vector<i64> rank_;
  idx min_deg_;
};

class MmdSolver {
 public:
  MmdSolver(const Graph& g, const MmdOptions& opt)
      : n_(g.num_vertices()),
        opt_(opt),
        adj_var_(static_cast<std::size_t>(n_)),
        adj_el_(static_cast<std::size_t>(n_)),
        el_vars_(static_cast<std::size_t>(n_)),
        is_element_(static_cast<std::size_t>(n_), 0),
        nv_(static_cast<std::size_t>(n_), 1),
        alive_(static_cast<std::size_t>(n_), 1),
        merged_kids_(static_cast<std::size_t>(n_)),
        marker_(static_cast<std::size_t>(n_), 0),
        blocked_stamp_(static_cast<std::size_t>(n_), 0),
        step_stamp_(1),
        compacted_(static_cast<std::size_t>(n_), 0),
        lost_(static_cast<std::size_t>(n_), 0),
        lp_bound_(static_cast<std::size_t>(n_), 0),
        lists_(n_, n_ > 0 ? n_ : 1),
        dirty_(n_, n_ > 0 ? n_ : 1) {
    for (idx v = 0; v < n_; ++v) {
      adj_var_[v].assign(g.adj_begin(v), g.adj_end(v));
      lists_.insert(v, g.degree(v), ++tick_);
    }
    order_.reserve(static_cast<std::size_t>(n_));
  }

  std::vector<idx> run() {
    while (static_cast<idx>(order_.size()) < n_) {
      step();
    }
    return order_;
  }

 private:
  void step() {
    resolve_dirty();
    const idx dmin = lists_.find_min_degree();
    SPC_CHECK(dmin != kNone, "mmd: degree lists empty before ordering finished");

    // --- Selection: independent pivots with degree <= dmin + delta.
    // AMD runs single elimination (one pivot per step).
    std::vector<idx> pivots;
    if (opt_.approximate_degree) {
      pivots.push_back(lists_.bucket_head(dmin));
    } else {
      const idx dmax = dmin + opt_.delta;
      for (idx d = dmin; d <= std::min<idx>(dmax, n_ - 1); ++d) {
        for (idx v = lists_.bucket_head(d); v != kNone;) {
          const idx next = lists_.bucket_next(v);
          if (!blocked_this_step(v)) {
            pivots.push_back(v);
            block_neighborhood(v);
          }
          v = next;
        }
      }
    }
    SPC_CHECK(!pivots.empty(), "mmd: no pivot selected in step");

    // --- Elimination of each pivot; collect the affected variables. ---
    affected_.clear();
    new_elements_.clear();
    for (idx p : pivots) {
      if (!alive_[p]) continue;  // mass-eliminated by an earlier pivot this step
      eliminate(p);
    }

    // --- Supervariable merging + degree update. ---
    dedupe_affected();
    merge_indistinguishable();
    if (opt_.approximate_degree) {
      update_approximate_degrees(pivots[0]);
    } else {
      bound_affected_degrees();
    }
    unblock_all();
  }

  // Moves dirty variables to the clean lists, computing their exact degree,
  // until every dirty bound exceeds the selection window dmin + delta. Since
  // exact >= bound, each variable left dirty has an exact degree outside the
  // window, so selection sees exactly the candidates eager updates would.
  void resolve_dirty() {
    resolved_.clear();
    idx dmin = lists_.find_min_degree();
    for (;;) {
      const idx bmin = dirty_.find_min_degree();
      if (bmin == kNone) break;
      if (dmin != kNone && bmin > dmin + opt_.delta) break;
      const idx v = dirty_.bucket_head(bmin);
      const i64 rank = dirty_.rank(v);
      dirty_.remove(v);
      const idx d = external_degree(v);
      SPC_CHECK(d >= bmin, "mmd: exact external degree below its lower bound");
      resolved_.emplace_back(rank, v, d);
      dmin = dmin == kNone ? d : std::min(dmin, d);
    }
    // Oldest first, so each insertion lands at or near its bucket's head.
    std::sort(resolved_.begin(), resolved_.end());
    for (const auto& [rank, v, d] : resolved_) lists_.insert(v, d, rank);
  }

  // Gives every affected variable v a lower bound on its new external degree
  // and moves it to the dirty lists. Two bounds hold:
  //   * |Lp|_w - nv_v for each new element p with v in Lp, since all of Lp
  //     stays in v's reach;
  //   * old key - weight that left v's reach this step. Only the pivots and
  //     mass-eliminated variables of elements containing v can leave it, and
  //     variables merged into v stop counting; a merge elsewhere keeps its
  //     weight in the reach.
  // Unaffected variables keep their keys: their reach did not change.
  void bound_affected_degrees() {
    for (const auto& [p, eliminated] : new_elements_) {
      i64 weight = 0;
      for (idx u : el_vars_[p]) {
        if (alive_[u]) weight += nv_[u];
      }
      for (idx u : el_vars_[p]) {
        if (!alive_[u]) continue;
        lost_[u] += eliminated;
        lp_bound_[u] = std::max(lp_bound_[u], weight - nv_[u]);
      }
    }
    for (idx v : affected_) {
      if (!alive_[v]) continue;
      const idx old = unlist(v);
      const i64 bound = std::max<i64>(lp_bound_[v], static_cast<i64>(old) - lost_[v]);
      lost_[v] = 0;
      lp_bound_[v] = 0;
      dirty_.insert(v, static_cast<idx>(std::clamp<i64>(bound, 0, n_ - 1)), ++tick_);
    }
  }

  // Removes v from whichever degree list holds it and returns its key.
  idx unlist(idx v) {
    DegreeLists& holder = lists_.contains(v) ? lists_ : dirty_;
    const idx key = holder.degree(v);
    holder.remove(v);
    return key;
  }

  bool blocked_this_step(idx v) const { return blocked_stamp_[v] == step_stamp_; }

  void block_neighborhood(idx p) {
    blocked_stamp_[p] = step_stamp_;
    for (idx u : adj_var_[p]) {
      if (alive_[u]) blocked_stamp_[u] = step_stamp_;
    }
    for (idx e : adj_el_[p]) {
      if (!is_element_[e]) continue;
      for (idx u : el_vars_[e]) {
        if (alive_[u]) blocked_stamp_[u] = step_stamp_;
      }
    }
  }

  void unblock_all() { ++step_stamp_; }

  // Forms element p: Lp = (A_p u union of element lists) \ {p}. Absorbs the
  // old elements, prunes variable adjacencies, and mass-eliminates variables
  // whose neighborhood collapses to the new element.
  void eliminate(idx p) {
    lists_.remove(p);
    alive_[p] = false;

    // Build Lp with a marker.
    ++mark_;
    marker_[p] = mark_;
    std::vector<idx> lp;
    auto add = [&](idx u) {
      if (alive_[u] && marker_[u] != mark_) {
        marker_[u] = mark_;
        lp.push_back(u);
      }
    };
    for (idx u : adj_var_[p]) add(u);
    for (idx e : adj_el_[p]) {
      if (!is_element_[e]) continue;  // already absorbed
      for (idx u : el_vars_[e]) add(u);
      is_element_[e] = false;  // absorb e into p
      el_vars_[e].clear();
      el_vars_[e].shrink_to_fit();
    }
    adj_var_[p].clear();
    adj_el_[p].clear();

    emit(p);

    // Prune each i in Lp: drop edges into Lp (now represented by element p),
    // drop absorbed elements, add element p.
    for (idx i : lp) {
      auto& av = adj_var_[i];
      av.erase(std::remove_if(av.begin(), av.end(),
                              [&](idx u) {
                                return !alive_[u] || marker_[u] == mark_;
                              }),
               av.end());
      auto& ae = adj_el_[i];
      ae.erase(std::remove_if(ae.begin(), ae.end(),
                              [&](idx e) { return !is_element_[e]; }),
               ae.end());
      ae.push_back(p);
    }

    // Mass elimination: i whose entire remaining adjacency is element p.
    i64 eliminated = nv_[p];
    std::vector<idx> survivors;
    survivors.reserve(lp.size());
    for (idx i : lp) {
      if (adj_var_[i].empty() && adj_el_[i].size() == 1 && adj_el_[i][0] == p) {
        unlist(i);
        alive_[i] = false;
        eliminated += nv_[i];
        adj_el_[i].clear();
        emit(i);
      } else {
        survivors.push_back(i);
        affected_.push_back(i);
      }
    }

    is_element_[p] = true;
    el_vars_[p] = std::move(survivors);
    new_elements_.emplace_back(p, eliminated);
  }

  // Appends supervariable v (principal + merged members) to the order.
  void emit(idx v) {
    order_.push_back(v);
    // Merged members are indistinguishable; emit them right after their
    // principal, recursively.
    for (std::size_t k = 0; k < merged_kids_[v].size(); ++k) {
      const idx kid = merged_kids_[v][k];
      order_.push_back(kid);
      for (idx grandkid : merged_kids_[kid]) merged_kids_[v].push_back(grandkid);
      // Note: grandkids appended to v's list get emitted by this same loop.
      merged_kids_[kid].clear();
    }
    merged_kids_[v].clear();
  }

  void dedupe_affected() {
    std::sort(affected_.begin(), affected_.end());
    affected_.erase(std::unique(affected_.begin(), affected_.end()), affected_.end());
    affected_.erase(std::remove_if(affected_.begin(), affected_.end(),
                                   [&](idx v) { return !alive_[v]; }),
                    affected_.end());
  }

  // Hash-first indistinguishable-variable detection among affected
  // variables. The hash is an order-independent sum over the live adjacency,
  // so it needs no sorting; only variables whose hashes collide are compacted
  // and compared exactly.
  void merge_indistinguishable() {
    if (affected_.size() < 2) return;
    hashes_.clear();
    for (idx v : affected_) {
      std::uint64_t h = 0;
      for (idx u : adj_var_[v]) {
        if (alive_[u]) h += mix(2 * static_cast<std::uint64_t>(u));
      }
      for (idx e : adj_el_[v]) {
        if (is_element_[e]) h += mix(2 * static_cast<std::uint64_t>(e) + 1);
      }
      hashes_.emplace_back(h, v);
    }
    std::sort(hashes_.begin(), hashes_.end());
    ++compact_tick_;
    for (std::size_t a = 0; a < hashes_.size(); ++a) {
      const idx v = hashes_[a].second;
      if (!alive_[v]) continue;
      for (std::size_t b = a + 1;
           b < hashes_.size() && hashes_[b].first == hashes_[a].first; ++b) {
        const idx u = hashes_[b].second;
        if (!alive_[u]) continue;
        compact(v);
        compact(u);
        if (indistinguishable(v, u)) merge(v, u);
      }
    }
  }

  // splitmix64 finalizer: spreads small indices over all 64 bits so sums of
  // distinct sets rarely collide.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  // Sorts and dedupes v's adjacency lists, at most once per step.
  void compact(idx v) {
    if (compacted_[v] == compact_tick_) return;
    compacted_[v] = compact_tick_;
    auto& av = adj_var_[v];
    av.erase(std::remove_if(av.begin(), av.end(),
                            [&](idx u) { return !alive_[u]; }),
             av.end());
    std::sort(av.begin(), av.end());
    av.erase(std::unique(av.begin(), av.end()), av.end());
    auto& ae = adj_el_[v];
    ae.erase(std::remove_if(ae.begin(), ae.end(),
                            [&](idx e) { return !is_element_[e]; }),
             ae.end());
    std::sort(ae.begin(), ae.end());
    ae.erase(std::unique(ae.begin(), ae.end()), ae.end());
  }

  // True if u and v have identical quotient-graph neighborhoods (ignoring
  // each other in the variable lists). Both must be compacted.
  bool indistinguishable(idx v, idx u) {
    if (adj_el_[v] != adj_el_[u]) return false;
    // Compare adj_var \ {u, v}.
    const auto& a = adj_var_[v];
    const auto& b = adj_var_[u];
    std::size_t ia = 0, ib = 0;
    while (true) {
      while (ia < a.size() && (a[ia] == u || a[ia] == v)) ++ia;
      while (ib < b.size() && (b[ib] == u || b[ib] == v)) ++ib;
      if (ia == a.size() || ib == b.size()) break;
      if (a[ia] != b[ib]) return false;
      ++ia;
      ++ib;
    }
    while (ia < a.size() && (a[ia] == u || a[ia] == v)) ++ia;
    while (ib < b.size() && (b[ib] == u || b[ib] == v)) ++ib;
    return ia == a.size() && ib == b.size();
  }

  void merge(idx principal, idx v) {
    nv_[principal] += nv_[v];
    lost_[principal] += nv_[v];  // read by bound_affected_degrees (MMD)
    nv_[v] = 0;
    alive_[v] = false;
    unlist(v);
    merged_kids_[principal].push_back(v);
    adj_var_[v].clear();
    adj_el_[v].clear();
    // Stale references to v inside element lists / adjacencies are filtered
    // lazily via alive_[].
  }

  // Amestoy-Davis-Duff approximate degree after eliminating pivot p with
  // element list Lp = el_vars_[p]: for each affected i,
  //   d(i) <= |Lp \ i| + sum(nv over A_i) + sum over e in E_i \ {p} of |Le \ Lp|
  // where the element externals |Le \ Lp| come from one subtraction pass.
  void update_approximate_degrees(idx p) {
    if (w_stamp_.empty()) {
      w_stamp_.assign(static_cast<std::size_t>(n_), 0);
      w_ext_.assign(static_cast<std::size_t>(n_), 0);
    }
    ++w_tick_;
    i64 lp_size = 0;
    for (idx u : el_vars_[p]) {
      if (alive_[u]) lp_size += nv_[u];
    }
    for (idx i : el_vars_[p]) {
      if (!alive_[i]) continue;
      for (idx e : adj_el_[i]) {
        if (!is_element_[e] || e == p) continue;
        if (w_stamp_[e] != w_tick_) {
          w_stamp_[e] = w_tick_;
          i64 size = 0;
          for (idx u : el_vars_[e]) {
            if (alive_[u]) size += nv_[u];
          }
          w_ext_[e] = size;
        }
        w_ext_[e] -= nv_[i];
      }
    }
    for (idx i : el_vars_[p]) {
      if (!alive_[i]) continue;
      i64 d = lp_size - nv_[i];
      for (idx u : adj_var_[i]) {
        if (alive_[u]) d += nv_[u];
      }
      for (idx e : adj_el_[i]) {
        if (!is_element_[e] || e == p) continue;
        if (w_ext_[e] > 0) d += w_ext_[e];
      }
      const idx prev = lists_.contains(i) ? lists_.degree(i) : n_ - 1;
      const idx bound = static_cast<idx>(
          std::min<i64>({d, n_ - 1, static_cast<i64>(prev) + lp_size - nv_[i]}));
      if (lists_.contains(i)) lists_.remove(i);
      lists_.insert(i, std::max<idx>(bound, 0), ++tick_);
    }
  }

  // Exact external degree: total size of distinct live neighbors via both
  // direct edges and element lists, excluding v itself.
  idx external_degree(idx v) {
    ++mark_;
    marker_[v] = mark_;
    i64 d = 0;
    auto visit = [&](idx u) {
      if (alive_[u] && marker_[u] != mark_) {
        marker_[u] = mark_;
        d += nv_[u];
      }
    };
    for (idx u : adj_var_[v]) visit(u);
    for (idx e : adj_el_[v]) {
      if (!is_element_[e]) continue;
      for (idx u : el_vars_[e]) visit(u);
    }
    return static_cast<idx>(std::min<i64>(d, n_ - 1));
  }

  idx n_;
  MmdOptions opt_;
  std::vector<std::vector<idx>> adj_var_;
  std::vector<std::vector<idx>> adj_el_;
  std::vector<std::vector<idx>> el_vars_;
  std::vector<char> is_element_;  // char, not bool: hot-loop reads
  std::vector<idx> nv_;
  std::vector<char> alive_;
  std::vector<std::vector<idx>> merged_kids_;
  std::vector<idx> marker_;
  idx mark_ = 0;
  std::vector<idx> blocked_stamp_;
  idx step_stamp_ = 0;
  std::vector<i64> compacted_;  // compact_tick_ of v's last compaction
  i64 compact_tick_ = 0;
  std::vector<i64> lost_;       // weight leaving v's reach this step
  std::vector<i64> lp_bound_;   // max |Lp|_w - nv_v over new elements p
  i64 tick_ = 0;                // rank of the latest keying
  DegreeLists lists_;           // exact external degrees
  DegreeLists dirty_;           // lower bounds, resolved before selection
  std::vector<std::pair<idx, i64>> new_elements_;  // {p, weight eliminated}
  std::vector<std::pair<std::uint64_t, idx>> hashes_;
  std::vector<std::tuple<i64, idx, idx>> resolved_;  // {rank, v, exact degree}
  std::vector<idx> affected_;
  std::vector<idx> order_;
  std::vector<i64> w_stamp_;
  std::vector<i64> w_ext_;
  i64 w_tick_ = 0;
};

}  // namespace

std::vector<idx> mmd_order(const Graph& g, const MmdOptions& opt) {
  if (g.num_vertices() == 0) return {};
  MmdSolver solver(g, opt);
  return solver.run();
}

std::vector<idx> amd_order(const Graph& g) {
  MmdOptions opt;
  opt.approximate_degree = true;
  return mmd_order(g, opt);
}

}  // namespace spc
