type kind =
  | Add
  | Sub
  | Mul
  | Lt
  | Gt
  | Eq
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Move

type fu_class = Alu | Multiplier | Comparator | Logic_unit | Shifter

let arity = function
  | Move -> 1
  | Add | Sub | Mul | Lt | Gt | Eq | And | Or | Xor | Shl | Shr -> 2

let fu_class = function
  | Add | Sub -> Some Alu
  | Mul -> Some Multiplier
  | Lt | Gt | Eq -> Some Comparator
  | And | Or | Xor -> Some Logic_unit
  | Shl | Shr -> Some Shifter
  | Move -> None

let identity_on kind port =
  match (kind, port) with
  | Add, _ -> Some 0
  | Sub, 1 -> Some 0
  | Mul, _ -> Some 1
  | Or, _ -> Some 0
  | Xor, _ -> Some 0
  | And, _ -> Some (-1) (* all-ones word *)
  | (Shl | Shr), 1 -> Some 0
  | _ -> None

let transparency kind port =
  (* [port] is the data input; the returned constant goes on the other
     input. *)
  let other = 1 - port in
  match identity_on kind other with
  | Some v -> `Identity v
  | None ->
    (match (kind, port) with
     | Sub, 1 -> `Invertible 0 (* 0 - b = -b: invertible *)
     | Move, 0 -> `Identity 0
     | _ -> `Opaque)

let mask_of_width width = if width >= Sys.int_size then -1 else (1 lsl width) - 1

let eval ~width kind args =
  let m = mask_of_width width in
  let sign_bit = 1 lsl (width - 1) in
  let to_signed x =
    let x = x land m in
    if width < Sys.int_size && x land sign_bit <> 0 then x - (m + 1) else x
  in
  match (kind, args) with
  | Add, [ a; b ] -> (a + b) land m
  | Sub, [ a; b ] -> (a - b) land m
  | Mul, [ a; b ] -> a * b land m
  | Lt, [ a; b ] -> if to_signed a < to_signed b then 1 else 0
  | Gt, [ a; b ] -> if to_signed a > to_signed b then 1 else 0
  | Eq, [ a; b ] -> if a land m = b land m then 1 else 0
  | And, [ a; b ] -> a land b land m
  | Or, [ a; b ] -> (a lor b) land m
  | Xor, [ a; b ] -> (a lxor b) land m
  | Shl, [ a; b ] -> (a lsl (b land m land 31)) land m
  | Shr, [ a; b ] -> (a land m) lsr (b land m land 31)
  | Move, [ a ] -> a land m
  | _ -> invalid_arg "Op.eval: arity mismatch"

let to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Lt -> "<"
  | Gt -> ">"
  | Eq -> "=="
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"
  | Move -> "mv"

let fu_class_to_string = function
  | Alu -> "alu"
  | Multiplier -> "mul"
  | Comparator -> "cmp"
  | Logic_unit -> "log"
  | Shifter -> "shf"

let all = [ Add; Sub; Mul; Lt; Gt; Eq; And; Or; Xor; Shl; Shr; Move ]
