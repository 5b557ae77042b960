type site = Podem | Fsim | Collapse | Serialize | Shard

exception Injection of { site : string; seq : int }

type config = { seed : int; prob : float; sites : site list; arm_after : int }

let all_sites = [ Podem; Fsim; Collapse; Serialize; Shard ]

let site_name = function
  | Podem -> "podem"
  | Fsim -> "fsim"
  | Collapse -> "collapse"
  | Serialize -> "serialize"
  | Shard -> "shard"

let site_of_string s =
  List.find_opt (fun site -> site_name site = s) all_sites

(* One counter per site so [arm_after] places the trip at the Nth use of
   a specific site, independent of how often the others fire. *)
type state = {
  cfg : config;
  rng : Hft_util.Rng.t;
  counts : (site * int ref) list;
  mutable injected : int;
}

let state : state option ref = ref None

let configure cfg =
  state :=
    Some
      {
        cfg;
        rng = Hft_util.Rng.create cfg.seed;
        counts = List.map (fun s -> (s, ref 0)) all_sites;
        injected = 0;
      }

let enabled () = !state <> None
let injections () = match !state with None -> 0 | Some st -> st.injected

let check site =
  match !state with
  | None -> ()
  | Some st ->
    if List.mem site st.cfg.sites then begin
      let c = List.assoc site st.counts in
      incr c;
      if !c > st.cfg.arm_after
         && Hft_util.Rng.float st.rng < st.cfg.prob
      then begin
        st.injected <- st.injected + 1;
        Hft_obs.Registry.incr "hft.chaos.injections";
        raise (Injection { site = site_name site; seq = st.injected })
      end
    end

(* Environment parsing is strict: a malformed value is a typed
   {!Validation.Invalid} (the CLI maps it to exit 2 with the standard
   error contract), never a silent default — a chaos campaign that
   quietly ran unarmed because of a typo'd HFT_CHAOS_PROB is worse than
   one that refuses to start. *)
let env_fail var value hint =
  Validation.fail ~site:("chaos.env." ^ var) ~hint
    (Printf.sprintf "malformed %s value %S" var value)

let of_env () =
  match Sys.getenv_opt "HFT_CHAOS_SEED" with
  | None ->
    (* No seed, no injector — but a stray knob alongside a missing seed
       is almost certainly a mistyped campaign; flag it. *)
    (match
       List.find_opt
         (fun v -> Sys.getenv_opt v <> None)
         [ "HFT_CHAOS_PROB"; "HFT_CHAOS_SITES"; "HFT_CHAOS_ARM" ]
     with
     | None -> ()
     | Some v ->
       Validation.fail ~site:"chaos.env"
         ~hint:"set HFT_CHAOS_SEED=<int> to arm the injector"
         (v ^ " is set but HFT_CHAOS_SEED is not"))
  | Some s ->
    let seed =
      match int_of_string_opt (String.trim s) with
      | Some seed -> seed
      | None -> env_fail "HFT_CHAOS_SEED" s "expected an integer seed"
    in
    let prob =
      match Sys.getenv_opt "HFT_CHAOS_PROB" with
      | None -> 0.05
      | Some p ->
        (match float_of_string_opt (String.trim p) with
         | Some f when f >= 0.0 && f <= 1.0 -> f
         | Some _ | None ->
           env_fail "HFT_CHAOS_PROB" p "expected a probability in [0, 1]")
    in
    let sites =
      match Sys.getenv_opt "HFT_CHAOS_SITES" with
      | None -> all_sites
      | Some spec ->
        let toks =
          String.split_on_char ',' spec
          |> List.map String.trim
          |> List.filter (fun t -> t <> "")
        in
        if toks = [] then
          env_fail "HFT_CHAOS_SITES" spec
            "expected a comma-separated list of sites";
        List.map
          (fun tok ->
            match site_of_string tok with
            | Some site -> site
            | None ->
              env_fail "HFT_CHAOS_SITES" tok
                ("known sites: "
                 ^ String.concat ", " (List.map site_name all_sites)))
          toks
    in
    let arm_after =
      match Sys.getenv_opt "HFT_CHAOS_ARM" with
      | None -> 0
      | Some a ->
        (match int_of_string_opt (String.trim a) with
         | Some n when n >= 0 -> n
         | Some _ | None ->
           env_fail "HFT_CHAOS_ARM" a "expected a non-negative integer")
    in
    configure { seed; prob; sites; arm_after }

let with_config cfg f =
  let saved = !state in
  configure cfg;
  Fun.protect ~finally:(fun () -> state := saved) f
