(* Deterministic pseudo-random inputs for the fuzz cases: one LCG stream
   per test process, so every run feeds the same bytes. *)

let lcg = ref 0x2026

let rand_int bound =
  lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
  (!lcg lsr 7) mod bound

let rand_string max_len =
  let len = 1 + rand_int max_len in
  String.init len (fun _ -> Char.chr (rand_int 256))

(* [s] with one byte replaced, deleted or inserted at a random position. *)
let mutate s =
  let n = String.length s in
  let i = rand_int (n + 1) in
  let byte = String.make 1 (Char.chr (rand_int 256)) in
  let head = String.sub s 0 i and tail k = String.sub s k (n - k) in
  match rand_int 3 with
  | 0 when i < n -> head ^ byte ^ tail (i + 1)
  | 1 when i < n -> head ^ tail (i + 1)
  | _ -> head ^ byte ^ tail i
