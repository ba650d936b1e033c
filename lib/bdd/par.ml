(* The intra-problem team: a size that work splitting is tuned to, and
   a runner that executes a task array. The runner owns the domains; in
   practice it is [Socy_core.Pool.Executor.parallel_tasks], either on the
   [socyield serve] executor or on a transient one per parallel build. *)

type runner = (unit -> unit) array -> unit
type t = { n : int; call : runner }

let of_runner ~domains call =
  if domains < 1 then invalid_arg "Par.of_runner: domains must be >= 1";
  { n = domains; call }

let domains t = t.n
let run t tasks = if Array.length tasks > 0 then t.call tasks
