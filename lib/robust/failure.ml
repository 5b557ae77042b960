type t =
  | Budget_exhausted of { site : string; steps : int; limit : int }
  | Engine_exception of string
  | Injected of { site : string; seq : int }

let site = function
  | Budget_exhausted { site; _ } -> site
  | Engine_exception _ -> "engine"
  | Injected { site; _ } -> site

let to_string = function
  | Budget_exhausted { site; steps; limit } ->
    Printf.sprintf "budget_exhausted(%s: %d steps > %d)" site steps limit
  | Engine_exception msg -> Printf.sprintf "engine_exception(%s)" msg
  | Injected { site; seq } -> Printf.sprintf "injected(%s #%d)" site seq
