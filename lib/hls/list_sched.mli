(** Resource-constrained list scheduling.

    Classic algorithm: walk control steps; at each step start the
    highest-priority ready operations while same-class units remain
    free.  The default priority is least mobility first (critical ops
    never wait).  [Move] operations need no functional unit and are
    scheduled as soon as ready. *)

open Hft_cdfg

type resources = (Op.fu_class * int) list

(** [schedule g ~resources] — raises [Invalid_argument] when a needed
    class is missing or has count [< 1].  [priority] overrides op
    priority (higher runs first); default is negative mobility at the
    ASAP-feasible horizon.  [max_steps] guards against livelock
    (default: generous). *)
val schedule :
  ?latency:int array -> ?priority:int array -> ?max_steps:int ->
  Graph.t -> resources:resources -> Schedule.t
