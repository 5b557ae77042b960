(** Packed bit vectors over native-int words.

    Backing store for pattern-parallel fault simulation: one [Bitvec.t]
    per circuit node holds the node's value under [width] test patterns
    simultaneously. *)

type t

(** Usable bits per word ([Sys.int_size - 1], i.e. 62 on 64-bit). *)
val word_bits : int

val create : int -> t

val length : t -> int
val get : t -> int -> bool
val set : t -> int -> bool -> unit
val fill : t -> bool -> unit
val copy : t -> t

(** [assign ~dst src] copies [src]'s bits into [dst] (same length). *)
val assign : dst:t -> t -> unit

(** Bitwise operations into [dst]; all arguments must share a length. *)
val and_ : dst:t -> t -> t -> unit
val or_ : dst:t -> t -> t -> unit
val xor : dst:t -> t -> t -> unit
val not_ : dst:t -> t -> unit

(** [mux ~dst s a b] selects per bit: [s ? b : a]
    (select=1 chooses the second data input). *)
val mux : dst:t -> t -> t -> t -> unit

val equal : t -> t -> bool

(** Number of set bits. *)
val popcount : t -> int

(** Indices of set bits, increasing. *)
val ones : t -> int list

(** [any_diff a b] is true when the vectors differ in some bit. *)
val any_diff : t -> t -> bool

(** Randomise all bits from the generator. *)
val randomize : Rng.t -> t -> unit
