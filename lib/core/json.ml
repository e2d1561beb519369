(* The one JSON writer: every document the binaries and the telemetry
   exporters print is built as a [t] and written compactly (no spaces,
   no newlines). JSON has no NaN or infinity, so non-finite floats are
   written as null. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* The body of a JSON string literal (without its quotes). *)
let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* The shortest decimal that reads back as the same float. *)
let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 15

(* [op], the items of [l] written by [f] with commas between, [cl]. *)
let seq b op cl f l =
  Buffer.add_char b op;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f b x)
    l;
  Buffer.add_char b cl

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (number f)
  | Str s -> Printf.bprintf b "\"%s\"" (escape s)
  | Arr l -> seq b '[' ']' write l
  | Obj l ->
      seq b '{' '}'
        (fun b (k, v) ->
          write b (Str k);
          Buffer.add_char b ':';
          write b v)
        l

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* [Int] fields from an association list, for documents that are mostly
   counters. *)
let ints kvs = List.map (fun (k, v) -> (k, Int v)) kvs
