type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- printing ----------------------------------------------------------- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Shortest decimal form that parses back to the same bits: floats
   round-trip exactly through the wire, which is what lets the test suite
   compare served results to direct library calls with [=]. *)
let number_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e16 then
    Printf.sprintf "%.0f" f
  else
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (number_string f)
  | Str s -> escape_string buf s
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          write buf v)
        members;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------ *)

exception Parse_error of int * string

let max_depth = 512

type state = { s : string; mutable pos : int }

let fail st msg = raise (Parse_error (st.pos, msg))
let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let next st =
  match peek st with
  | Some c ->
      st.pos <- st.pos + 1;
      c
  | None -> fail st "unexpected end of input"

let skip_ws st =
  while
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        st.pos <- st.pos + 1;
        true
    | _ -> false
  do
    ()
  done

let expect st c =
  let got = next st in
  if got <> c then fail st (Printf.sprintf "expected %C, got %C" c got)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "invalid literal (expected %s)" word)

(* UTF-8 encode one code point (surrogate pairs already combined). *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    let c = next st in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail st "invalid \\u escape"
    in
    v := (!v * 16) + d
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match next st with
    | '"' -> Buffer.contents buf
    | '\\' -> (
        (match next st with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
            let cp = hex4 st in
            let cp =
              (* High surrogate: require and combine the low half. *)
              if cp >= 0xD800 && cp <= 0xDBFF then begin
                expect st '\\';
                expect st 'u';
                let lo = hex4 st in
                if lo < 0xDC00 || lo > 0xDFFF then
                  fail st "unpaired surrogate in \\u escape";
                0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
              end
              else if cp >= 0xDC00 && cp <= 0xDFFF then
                fail st "unpaired surrogate in \\u escape"
              else cp
            in
            add_utf8 buf cp
        | c -> fail st (Printf.sprintf "invalid escape \\%c" c));
        loop ())
    | c when Char.code c < 0x20 -> fail st "raw control character in string"
    | c ->
        Buffer.add_char buf c;
        loop ()
  in
  loop ()

let parse_number st =
  let start = st.pos in
  let consume_digits () =
    let had = ref false in
    while (match peek st with Some '0' .. '9' -> true | _ -> false) do
      had := true;
      st.pos <- st.pos + 1
    done;
    if not !had then fail st "malformed number"
  in
  if peek st = Some '-' then st.pos <- st.pos + 1;
  consume_digits ();
  if peek st = Some '.' then begin
    st.pos <- st.pos + 1;
    consume_digits ()
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      st.pos <- st.pos + 1;
      (match peek st with
      | Some ('+' | '-') -> st.pos <- st.pos + 1
      | _ -> ());
      consume_digits ()
  | _ -> ());
  let text = String.sub st.s start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> fail st "malformed number"

let rec parse_value st depth =
  if depth > max_depth then fail st "nesting too deep";
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        Arr []
      end
      else begin
        let items = ref [] in
        let rec loop () =
          items := parse_value st (depth + 1) :: !items;
          skip_ws st;
          match next st with
          | ',' -> loop ()
          | ']' -> ()
          | c -> fail st (Printf.sprintf "expected ',' or ']', got %C" c)
        in
        loop ();
        Arr (List.rev !items)
      end
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let members = ref [] in
        let rec loop () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st (depth + 1) in
          members := (k, v) :: !members;
          skip_ws st;
          match next st with
          | ',' -> loop ()
          | '}' -> ()
          | c -> fail st (Printf.sprintf "expected ',' or '}', got %C" c)
        in
        loop ();
        Obj (List.rev !members)
      end
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)

let of_string s =
  let st = { s; pos = 0 } in
  match
    let v = parse_value st 0 in
    skip_ws st;
    if st.pos <> String.length s then fail st "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Parse_error (pos, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" pos msg)

(* --- accessors ---------------------------------------------------------- *)

let mem k = function Obj members -> List.assoc_opt k members | _ -> None
let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None
let bool = function Bool b -> Some b | _ -> None
let arr = function Arr items -> Some items | _ -> None
let obj = function Obj _ as v -> Some v | _ -> None

let float_array v =
  match v with
  | Arr items ->
      let n = List.length items in
      let out = Array.make n 0.0 in
      let ok = ref true in
      List.iteri
        (fun i item ->
          match item with Num f -> out.(i) <- f | _ -> ok := false)
        items;
      if !ok then Some out else None
  | _ -> None

let int = function
  | Num f ->
      let i = int_of_float f in
      if float_of_int i = f then Some i else None
  | _ -> None

let nat v = match int v with Some i when i >= 0 -> Some i | _ -> None

(* --- field readers ------------------------------------------------------- *)

(* Error strings are built only on the failing path: the server decodes
   every request through these. *)
let field_error key what = Error (Printf.sprintf "field %S: %s" key what)

let field ?default key read ~what obj =
  match mem key obj with
  | Some v -> ( match read v with Some x -> Ok x | None -> field_error key what)
  | None -> (
      match default with Some d -> Ok d | None -> field_error key "required")

let array ?default key decode ~what obj =
  match (mem key obj, default) with
  | None, Some d -> Ok d
  | _ ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> Result.bind (decode x) (fun d -> go (d :: acc) rest)
      in
      Result.bind (field key arr ~what obj) (go [])
