type policy = {
  retries : int;
  budget_growth : int;
  deadline_wall : float option;
  deadline_steps : int option;
  backoff_growth : float;
  salvage_patterns : int;
}

let default =
  {
    retries = 2;
    budget_growth = 2;
    deadline_wall = None;
    deadline_steps = None;
    backoff_growth = 2.0;
    salvage_patterns = 32;
  }

(* The one exception-to-failure map, for callers outside the
   chaos-site taxonomy too (the fuzz campaign names its sites after
   oracle checks): no chaos draw of its own — injections still surface
   from [Chaos.check]s {e inside} [f] — and the free-form [name] labels
   the failure. *)
let guard ~name f =
  try Ok (f ()) with
  | Chaos.Injection { site; seq } -> Error (Failure.Injected { site; seq })
  | Deadline.Expired (Deadline.Wall { elapsed; limit }) ->
    Error (Failure.Timeout { site = name; elapsed; limit })
  | Deadline.Expired (Deadline.Steps { steps; limit }) ->
    Error (Failure.Budget_exhausted { site = name; steps; limit })
  | (Out_of_memory | Sys.Break) as e -> raise e
  | e -> Error (Failure.Engine_exception (Printexc.to_string e))

let protect ~site f =
  guard ~name:(Chaos.site_name site) (fun () ->
      Chaos.check site;
      f ())

let ladder policy ~site ~budget f =
  let rec go attempt budget scale =
    let deadline =
      match (policy.deadline_wall, policy.deadline_steps) with
      | None, None -> None
      | wall, steps ->
        Some
          (Deadline.make
             ?wall:(Option.map (fun w -> w *. scale) wall)
             ?steps:
               (Option.map
                  (fun s -> int_of_float (float_of_int s *. scale))
                  steps)
             ())
    in
    let check = Option.map Deadline.checker deadline in
    match protect ~site (fun () -> f ~budget ~check) with
    | Ok _ as ok -> ok
    | Error fail ->
      if attempt >= policy.retries then Error fail
      else begin
        let budget' = budget * policy.budget_growth in
        Hft_obs.Registry.incr "hft.robust.retries";
        go (attempt + 1) budget' (scale *. policy.backoff_growth)
      end
  in
  go 0 budget 1.0

let final_budget policy ~budget =
  let rec go i b = if i >= policy.retries then b else go (i + 1) (b * policy.budget_growth) in
  go 0 budget
