(** Pure conflict-free replicated tree resolution, after Ahmed-Nacer,
    Martin & Urso, "File system on CRDT" (PAPERS.md).

    Ficus directory reconciliation merges each directory's entry set as
    a join-semilattice (OR-set with tombstone-wins), which converges
    per directory but leaves the {e tree} unconstrained: concurrent
    cross-renames can make the parent graph a DAG, orphan whole
    subtrees behind tombstoned parents, or create cycles that no
    replica can reach from the root.  This module is the pure decision
    kernel that repairs the graph into a tree, deterministically, from
    nothing but join-stable facts — so any two replicas that have seen
    the same set of links compute the same repair, and replicas that
    have seen {e different} subsets compute repairs whose effects are
    themselves joinable directory operations (tombstones and adds with
    deterministic births).

    Nodes are abstract [(issuer, uniq)] file ids; links are live
    directory entries naming a child directory.  Nothing here touches
    storage: the caller discovers links, applies decisions. *)

type node = int * int
(** A directory identified by its file id [(issuer, uniq)]. *)

type link = {
  l_parent : node;
  l_child : node;
  l_name : string;
  l_birth : int * int;  (** the entry's birth [(b_rid, b_seq)] *)
}
(** A live directory entry in [l_parent] naming child directory
    [l_child].  Births are allocated once per entry creation and never
    reused, so they are join-stable: every replica that has the entry
    has it with this exact birth. *)

type decision =
  | Keep of link      (** the winning parent link; no action needed *)
  | Demote of link    (** a losing live link: tombstone it *)
  | Attach of node
      (** re-parent this node into the conflict orphanage with a
          deterministic name and birth derived from its id *)

type resolution = {
  decisions : decision list;
  cycles_broken : int;  (** cycles in the winner graph that were cut *)
  orphans : int;        (** nodes with no live parent link anywhere *)
  losers : int;         (** live links demoted (multi-parent + cycle cuts) *)
}

val resolve :
  root:node -> orphanage:node -> nodes:node list -> links:link list -> resolution
(** [resolve ~root ~orphanage ~nodes ~links] decides a repair.

    [nodes] is every directory the caller can see (link endpoints are
    added implicitly); [links] every {e live} parent link among them.
    The result re-roots every node: one winning parent each (extra
    live parents demoted), nodes with no live parent attached to the
    orphanage, and cycles in the winner graph cut by attaching the
    smallest fid of each cycle to the orphanage (demoting the link the
    cycle entered it by).  The orphanage and the root are fixed points
    and never re-parented.  Decisions are ordered: [Attach]es first
    (parents must exist before children move), then [Demote]s, then
    [Keep]s.

    The winning parent comes first in a deterministic total order on
    links: orphanage links first (a completed repair is never undone by
    a later merge — the anti-oscillation rule), then descending birth
    sequence (the per-origin update counter, our join-stable proxy for
    vv dominance: a later rename by the same origin always has a
    larger [b_seq]), then origin host id, then parent fid.  Every
    replica sorts any common subset of links identically. *)
