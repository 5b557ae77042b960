exception Expired of { steps : int; limit : int }

type t = { limit : int; mutable ticks : int }

let make ~steps = { limit = steps; ticks = 0 }

let tick t =
  t.ticks <- t.ticks + 1;
  if t.ticks > t.limit then
    raise (Expired { steps = t.ticks; limit = t.limit })

let checker t () = tick t
