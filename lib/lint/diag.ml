type rule =
  | L1
  | L2
  | L3
  | L4
  | L5
  | L6
  | L7
  | L8
  | L9
  | L10
  | L11
  | L12
  | L13
  | L14
  | L15

let all_rules =
  [ L1; L2; L3; L4; L5; L6; L7; L8; L9; L10; L11; L12; L13; L14; L15 ]

let rule_id = function
  | L1 -> "L1"
  | L2 -> "L2"
  | L3 -> "L3"
  | L4 -> "L4"
  | L5 -> "L5"
  | L6 -> "L6"
  | L7 -> "L7"
  | L8 -> "L8"
  | L9 -> "L9"
  | L10 -> "L10"
  | L11 -> "L11"
  | L12 -> "L12"
  | L13 -> "L13"
  | L14 -> "L14"
  | L15 -> "L15"

let rule_of_string s =
  match String.uppercase_ascii (String.trim s) with
  | "L1" -> Some L1
  | "L2" -> Some L2
  | "L3" -> Some L3
  | "L4" -> Some L4
  | "L5" -> Some L5
  | "L6" -> Some L6
  | "L7" -> Some L7
  | "L8" -> Some L8
  | "L9" -> Some L9
  | "L10" -> Some L10
  | "L11" -> Some L11
  | "L12" -> Some L12
  | "L13" -> Some L13
  | "L14" -> Some L14
  | "L15" -> Some L15
  | _ -> None

let rule_doc = function
  | L1 -> "polymorphic compare/equality on a float-bearing type"
  | L2 -> "partial stdlib function in library code"
  | L3 -> "physical constant duplicated outside Cisp_util.Units"
  | L4 -> "bare float parameter without a unit label or suffix"
  | L5 -> "stdout printing from library code"
  | L6 -> "assert used for data validation in library code"
  | L7 -> "closure handed to the domain pool transitively mutates unsynchronized shared state"
  | L8 -> "public API can raise an exception outside the Invalid_argument convention"
  | L9 -> "ambient nondeterminism read reachable from the design pipeline"
  | L10 -> "allocation reachable from a [@cisp.zero_alloc] contract"
  | L11 -> "per-call allocation (closure/boxed float) inside a domain-pool worker body"
  | L12 -> "polymorphic compare/hash reachable from the design pipeline where a monomorphic comparison exists"
  | L13 -> "lock acquisition order contradicts the canonical order or forms a cycle"
  | L14 -> "call that may block while a lock is held or inside a domain-pool worker body"
  | L15 -> "float accumulation over an unordered container reachable from the design pipeline"

type t = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  symbol : string;
  message : string;
  witness : string list;
      (* interprocedural chain from the flagged site to the deep
         evidence (L13/L14); empty for single-site findings *)
}

let make ?(witness = []) ~rule ~symbol ~message (loc : Location.t) =
  let p = loc.Location.loc_start in
  {
    rule;
    file = p.Lexing.pos_fname;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    symbol;
    message;
    witness;
  }

let order a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare (rule_id a.rule) (rule_id b.rule) in
        if c <> 0 then c
        else
          let c = String.compare a.message b.message in
          if c <> 0 then c
          else
            let c = String.compare a.symbol b.symbol in
            if c <> 0 then c else List.compare String.compare a.witness b.witness

let to_string d =
  let where =
    if String.equal d.symbol "" then "" else Printf.sprintf " (in `%s')" d.symbol
  in
  Printf.sprintf "%s:%d:%d: [%s] %s%s" d.file d.line d.col (rule_id d.rule)
    d.message where

(* Minimal RFC 8259 string escaping; the linter library depends only
   on compiler-libs, so it cannot reuse Cisp_design.Export. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json d =
  let base =
    Printf.sprintf
      {|{"file":"%s","line":%d,"col":%d,"rule":"%s","symbol":"%s","message":"%s"|}
      (json_escape d.file) d.line d.col (rule_id d.rule) (json_escape d.symbol)
      (json_escape d.message)
  in
  match d.witness with
  | [] -> base ^ "}"
  | ws ->
      Printf.sprintf {|%s,"witness":[%s]|} base
        (String.concat ","
           (List.map (fun w -> Printf.sprintf {|"%s"|} (json_escape w)) ws))
      ^ "}"
