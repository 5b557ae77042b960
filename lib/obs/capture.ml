type tape = (unit -> unit) list
(* Stored in emission order (reversed once at capture end). *)

type mode = Off | Capturing of (unit -> unit) list ref | Suppressing

let key = Domain.DLS.new_key (fun () -> Off)

let active () =
  match Domain.DLS.get key with Off -> false | Capturing _ | Suppressing -> true

let defer th =
  match Domain.DLS.get key with
  | Off -> false
  | Capturing buf ->
    buf := th :: !buf;
    true
  | Suppressing -> true

let with_mode m f =
  let saved = Domain.DLS.get key in
  Domain.DLS.set key m;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key saved) f

let record f =
  let buf = ref [] in
  let x = with_mode (Capturing buf) f in
  (x, List.rev !buf)

let suppress f = with_mode Suppressing f

let replay t = List.iter (fun th -> th ()) t
