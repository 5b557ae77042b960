let word_bits = Sys.int_size - 1

type t = { len : int; words : int array }

let nwords len = (len + word_bits - 1) / word_bits

let mask_last t =
  (* Keep unused high bits of the last word at zero so equality and
     popcount are exact. *)
  let rem = t.len mod word_bits in
  if rem <> 0 then begin
    let last = Array.length t.words - 1 in
    t.words.(last) <- t.words.(last) land ((1 lsl rem) - 1)
  end

let create len =
  if len < 0 then invalid_arg "Bitvec.create";
  { len; words = Array.make (max 1 (nwords len)) 0 }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Bitvec.get";
  t.words.(i / word_bits) lsr (i mod word_bits) land 1 = 1

let set t i b =
  if i < 0 || i >= t.len then invalid_arg "Bitvec.set";
  let w = i / word_bits and o = i mod word_bits in
  if b then t.words.(w) <- t.words.(w) lor (1 lsl o)
  else t.words.(w) <- t.words.(w) land lnot (1 lsl o)

let fill t b =
  Array.fill t.words 0 (Array.length t.words)
    (if b then (1 lsl word_bits) - 1 else 0);
  if b then mask_last t

let copy t = { len = t.len; words = Array.copy t.words }

let assign ~dst src =
  if dst.len <> src.len then invalid_arg "Bitvec.assign: length mismatch";
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let check2 a b = if a.len <> b.len then invalid_arg "Bitvec: length mismatch"

let and_ ~dst a b =
  check2 dst a;
  check2 a b;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- a.words.(i) land b.words.(i)
  done

let or_ ~dst a b =
  check2 dst a;
  check2 a b;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- a.words.(i) lor b.words.(i)
  done

let xor ~dst a b =
  check2 dst a;
  check2 a b;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- a.words.(i) lxor b.words.(i)
  done

let word_mask = (1 lsl word_bits) - 1

let not_ ~dst a =
  check2 dst a;
  for i = 0 to Array.length dst.words - 1 do
    (* Native ints carry [Sys.int_size] bits; keep only the low
       [word_bits] so popcount and equality stay exact. *)
    dst.words.(i) <- lnot a.words.(i) land word_mask
  done;
  mask_last dst

let mux ~dst s a b =
  check2 dst s;
  check2 s a;
  check2 a b;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <-
      (a.words.(i) land lnot s.words.(i)) lor (b.words.(i) land s.words.(i))
  done;
  mask_last dst

let equal a b = a.len = b.len && a.words = b.words

let popcount_word w =
  let rec go w acc = if w = 0 then acc else go (w lsr 1) (acc + (w land 1)) in
  (* Kernighan variant is faster, but clarity wins for our sizes. *)
  go w 0

let popcount t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

let ones t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if get t i then acc := i :: !acc
  done;
  !acc

let any_diff a b =
  check2 a b;
  let rec go i =
    i < Array.length a.words && (a.words.(i) <> b.words.(i) || go (i + 1))
  in
  go 0

let randomize rng t =
  for i = 0 to Array.length t.words - 1 do
    t.words.(i) <- Rng.word rng
  done;
  mask_last t
