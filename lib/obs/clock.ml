(* Wall-clock source, overridable so tests can make time deterministic. *)

let source = ref Unix.gettimeofday
let now () = !source ()

let with_source f body =
  let prev = !source in
  source := f;
  Fun.protect ~finally:(fun () -> source := prev) body
