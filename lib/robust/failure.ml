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

let to_json t =
  let open Hft_util.Json in
  let kind, fields =
    match t with
    | Budget_exhausted { site; steps; limit } ->
      ( "budget_exhausted",
        [ ("site", String site); ("steps", Int steps); ("limit", Int limit) ] )
    | Engine_exception msg -> ("engine_exception", [ ("message", String msg) ])
    | Injected { site; seq } ->
      ("injected", [ ("site", String site); ("seq", Int seq) ])
  in
  Obj (("kind", String kind) :: fields)
