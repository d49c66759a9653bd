(* Flat row-major storage: one [float array], element (i, j) at
   [i * cols + j]. The public accessors are bounds-checked; the kernels
   below (and LU/CG in this library) index the flat buffer with
   [Array.unsafe_get]/[unsafe_set] after validating shapes once up
   front. *)

type t = { rows : int; cols : int; data : float array }

let m_mul_flops = Tats_util.Metricsreg.counter "matrix.mul_flops"

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then create 0 0
  else begin
    let cols = Array.length a.(0) in
    Array.iter
      (fun row ->
        if Array.length row <> cols then
          invalid_arg "Matrix.of_arrays: ragged input")
      a;
    init rows cols (fun i j -> a.(i).(j))
  end

let rows m = m.rows
let cols m = m.cols
let data m = m.data

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Matrix.get: index out of range";
  Array.unsafe_get m.data ((i * m.cols) + j)

let set m i j x =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Matrix.set: index out of range";
  Array.unsafe_set m.data ((i * m.cols) + j) x

let add_to m i j x =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Matrix.add_to: index out of range";
  let k = (i * m.cols) + j in
  Array.unsafe_set m.data k (Array.unsafe_get m.data k +. x)

let to_arrays m =
  Array.init m.rows (fun i -> Array.sub m.data (i * m.cols) m.cols)

let col m j =
  if j < 0 || j >= m.cols then invalid_arg "Matrix.col: column out of range";
  Array.init m.rows (fun i -> Array.unsafe_get m.data ((i * m.cols) + j))

let copy m = { m with data = Array.copy m.data }

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let map2 f a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Matrix: dimension mismatch";
  { a with data = Array.init (Array.length a.data) (fun k -> f a.data.(k) b.data.(k)) }

let add a b = map2 ( +. ) a b
let sub a b = map2 ( -. ) a b
let scale s m = { m with data = Array.map (fun x -> s *. x) m.data }

(* Cache tile for [mul]: 48 x 48 doubles per operand tile (~18 KB) keeps
   an A tile and the hot B rows resident in L1/L2 together. *)
let tile = 48

(* Tiled i/k product with the scalar update order of the classic ikj
   loop: every c(i,j) accumulates its a(i,k)*b(k,j) terms one at a time
   in ascending k (tiles ascend, k within a tile ascends), so the result
   is bit-identical to the untiled kernel on finite inputs — tiling and
   the 4-way unrolled j loop only reorder independent elements. *)
let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
  let m = a.rows and kn = a.cols and n = b.cols in
  let c = create m n in
  let ad = a.data and bd = b.data and cd = c.data in
  let i0 = ref 0 in
  while !i0 < m do
    let ihi = Stdlib.min m (!i0 + tile) - 1 in
    let k0 = ref 0 in
    while !k0 < kn do
      let khi = Stdlib.min kn (!k0 + tile) - 1 in
      for i = !i0 to ihi do
        let arow = i * kn and crow = i * n in
        for k = !k0 to khi do
          let aik = Array.unsafe_get ad (arow + k) in
          if aik <> 0.0 then begin
            let brow = k * n in
            let j = ref 0 in
            while !j + 3 < n do
              let j0 = !j in
              Array.unsafe_set cd (crow + j0)
                (Array.unsafe_get cd (crow + j0)
                +. (aik *. Array.unsafe_get bd (brow + j0)));
              Array.unsafe_set cd (crow + j0 + 1)
                (Array.unsafe_get cd (crow + j0 + 1)
                +. (aik *. Array.unsafe_get bd (brow + j0 + 1)));
              Array.unsafe_set cd (crow + j0 + 2)
                (Array.unsafe_get cd (crow + j0 + 2)
                +. (aik *. Array.unsafe_get bd (brow + j0 + 2)));
              Array.unsafe_set cd (crow + j0 + 3)
                (Array.unsafe_get cd (crow + j0 + 3)
                +. (aik *. Array.unsafe_get bd (brow + j0 + 3)));
              j := j0 + 4
            done;
            for j = !j to n - 1 do
              Array.unsafe_set cd (crow + j)
                (Array.unsafe_get cd (crow + j)
                +. (aik *. Array.unsafe_get bd (brow + j)))
            done
          end
        done
      done;
      k0 := !k0 + tile
    done;
    i0 := !i0 + tile
  done;
  Tats_util.Metricsreg.add m_mul_flops (2 * m * n * kn);
  c

let mul_vec m v =
  if m.cols <> Array.length v then invalid_arg "Matrix.mul_vec: dimension mismatch";
  let d = m.data and n = m.cols in
  Array.init m.rows (fun i ->
      let row = i * n in
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        acc := !acc +. (Array.unsafe_get d (row + j) *. Array.unsafe_get v j)
      done;
      !acc)

(* One accumulator per row, two rows per pass, j ascending: each output
   element sees the operations of the column-major saxpy sweep
   [dst <- init; for j: if x.(j) <> 0 then dst <- dst + x.(j) * col j]
   in the same order, so the two are bit-identical. The float-typed
   parameters keep every access on the unboxed float-array path with
   its bounds check. *)
let mul_vec_add_into ~n (m : float array) ~(x : float array) ~(init : float array)
    ~(dst : float array) =
  if
    n < 0
    || Array.length m < n * n
    || Array.length x < n
    || Array.length init < n
    || Array.length dst < n
  then invalid_arg "Matrix.mul_vec_add_into: size mismatch";
  if x == dst then invalid_arg "Matrix.mul_vec_add_into: x and dst must not alias";
  let i = ref 0 in
  while !i + 1 < n do
    let i0 = !i in
    let r0 = i0 * n in
    let r1 = r0 + n in
    let a0 = ref init.(i0) and a1 = ref init.(i0 + 1) in
    for j = 0 to n - 1 do
      let xj = x.(j) in
      if xj <> 0.0 then begin
        a0 := !a0 +. (xj *. m.(r0 + j));
        a1 := !a1 +. (xj *. m.(r1 + j))
      end
    done;
    dst.(i0) <- !a0;
    dst.(i0 + 1) <- !a1;
    i := i0 + 2
  done;
  if !i < n then begin
    let i0 = !i in
    let r0 = i0 * n in
    let a0 = ref init.(i0) in
    for j = 0 to n - 1 do
      let xj = x.(j) in
      if xj <> 0.0 then a0 := !a0 +. (xj *. m.(r0 + j))
    done;
    dst.(i0) <- !a0
  end

let frobenius m = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 m.data)

let max_abs_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Matrix.max_abs_diff: dimension mismatch";
  let worst = ref 0.0 in
  Array.iteri
    (fun k x -> worst := Float.max !worst (Float.abs (x -. b.data.(k))))
    a.data;
  !worst

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "@[<h>";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%10.4g" (get m i j)
    done;
    Format.fprintf ppf "@]";
    if i < m.rows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
