module Tbl = Hashtbl.Make (struct
  type t = float array

  let rec same (a : t) (b : t) i =
    i = Array.length a
    || Int64.bits_of_float a.(i) = Int64.bits_of_float b.(i) && same a b (i + 1)

  let equal a b = Array.length a = Array.length b && same a b 0
  let hash (a : t) = Hashtbl.hash a
end)
