(** The team an intra-problem parallel build runs on.

    [run team tasks] executes every task exactly once and returns when all
    are done; the first task exception is re-raised in the caller after
    the job drains. The team owns no domains: it wraps a runner, in
    practice [Socy_core.Pool.Executor.parallel_tasks]. *)

type t

type runner = (unit -> unit) array -> unit
(** External work-distribution hook: must run every thunk to completion
    before returning (the caller may participate). *)

val of_runner : domains:int -> runner -> t
(** A team of [domains] participants backed by [runner]. [domains] sizes
    work splitting; the runner decides how many domains actually run.
    Raises [Invalid_argument] if [domains < 1]. *)

val domains : t -> int

val run : t -> (unit -> unit) array -> unit
