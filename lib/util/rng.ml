(* The state lives in an 8-byte buffer rather than a mutable [int64]
   field: storing an [int64] into a record field boxes it, so every
   draw would allocate. The buffer's accessors compile to plain loads
   and stores. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next_int64 t)

let split_n t n =
  if n < 0 then Invariant.invalid ~where:"Rng.split_n" "negative count";
  Array.init n (fun _ -> split t)

let int t bound =
  if bound <= 0 then Invariant.invalid ~where:"Rng.int" "bound must be positive";
  let r = Int64.to_int (next_int64 t) land max_int in
  r mod bound

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  (* 53 significant bits, scaled to [0, 1). *)
  r /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let pick t arr =
  if Array.length arr = 0 then Invariant.invalid ~where:"Rng.pick" "empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
