exception Lex_error of string * Token.loc

let keywords =
  [
    ("void", Token.KW_VOID); ("char", Token.KW_CHAR); ("short", Token.KW_SHORT);
    ("int", Token.KW_INT); ("long", Token.KW_LONG);
    ("unsigned", Token.KW_UNSIGNED); ("signed", Token.KW_SIGNED);
    ("struct", Token.KW_STRUCT); ("union", Token.KW_UNION);
    ("if", Token.KW_IF); ("else", Token.KW_ELSE); ("while", Token.KW_WHILE);
    ("for", Token.KW_FOR); ("do", Token.KW_DO); ("return", Token.KW_RETURN);
    ("break", Token.KW_BREAK); ("continue", Token.KW_CONTINUE);
    ("sizeof", Token.KW_SIZEOF); ("extern", Token.KW_EXTERN);
    ("static", Token.KW_STATIC); ("const", Token.KW_CONST);
    ("__noanalyze", Token.KW_NOANALYZE); ("__callsig_assert", Token.KW_CALLSIG);
    ("__kernel_entry", Token.KW_KERNEL_ENTRY);
  ]

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.pos <- st.pos + 1

let loc st = { Token.line = st.line; col = st.col }

let error st msg = raise (Lex_error (msg, loc st))

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident c = is_ident_start c || is_digit c

let rec skip_ws_and_comments st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_ws_and_comments st
  | Some '/' when peek2 st = Some '/' ->
      while peek st <> None && peek st <> Some '\n' do
        advance st
      done;
      skip_ws_and_comments st
  | Some '/' when peek2 st = Some '*' ->
      advance st;
      advance st;
      let rec close () =
        match (peek st, peek2 st) with
        | Some '*', Some '/' ->
            advance st;
            advance st
        | Some _, _ ->
            advance st;
            close ()
        | None, _ -> error st "unterminated comment"
      in
      close ();
      skip_ws_and_comments st
  | _ -> ()

let lex_ident st =
  let start = st.pos in
  while (match peek st with Some c -> is_ident c | None -> false) do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  match List.assoc_opt s keywords with
  | Some kw -> kw
  | None -> Token.IDENT s

(* An integer literal's 64-bit pattern: hexadecimal up to 16 digits,
   decimal up to 2^64-1 (C's [18446744073709551615UL] is -1). *)
let lex_number st =
  let start = st.pos and at = loc st in
  let hex =
    peek st = Some '0' && (peek2 st = Some 'x' || peek2 st = Some 'X')
  in
  if hex then begin
    advance st;
    advance st
  end;
  while
    match peek st with
    | Some c -> if hex then is_hex c else is_digit c
    | None -> false
  do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  (* Optional UL / L / U suffixes, ignored (widths come from context). *)
  while
    match peek st with Some ('u' | 'U' | 'l' | 'L') -> true | _ -> false
  do
    advance st
  done;
  match Int64.of_string_opt (if hex then s else "0u" ^ s) with
  | Some n -> Token.INT_LIT n
  | None ->
      let what = if s = "0x" || s = "0X" then "malformed" else "out of range" in
      raise (Lex_error (Printf.sprintf "integer literal %s %s" s what, at))

let escape st c =
  match c with
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | '0' -> '\000'
  | '\\' -> '\\'
  | '\'' -> '\''
  | '"' -> '"'
  | _ -> error st (Printf.sprintf "unknown escape \\%c" c)

let lex_string st =
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | Some '"' ->
        advance st;
        Token.STR_LIT (Buffer.contents buf)
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some c ->
            Buffer.add_char buf (escape st c);
            advance st;
            go ()
        | None -> error st "unterminated string")
    | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
    | None -> error st "unterminated string"
  in
  go ()

let lex_char st =
  advance st;
  let c =
    match peek st with
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some e ->
            advance st;
            escape st e
        | None -> error st "unterminated char literal")
    | Some c ->
        advance st;
        c
    | None -> error st "unterminated char literal"
  in
  (match peek st with
  | Some '\'' -> advance st
  | _ -> error st "unterminated char literal");
  Token.CHAR_LIT c

let lex_punct st =
  let c = match peek st with Some c -> c | None -> error st "eof" in
  let c2 = peek2 st in
  let two tok =
    advance st;
    advance st;
    tok
  in
  let three tok =
    advance st;
    advance st;
    advance st;
    tok
  in
  let one tok =
    advance st;
    tok
  in
  match (c, c2) with
  | '.', Some '.'
    when st.pos + 2 < String.length st.src && st.src.[st.pos + 2] = '.' ->
      three Token.ELLIPSIS
  | '-', Some '>' -> two Token.ARROW
  | '-', Some '-' -> two Token.MINUSMINUS
  | '-', Some '=' -> two Token.MINUSEQ
  | '+', Some '+' -> two Token.PLUSPLUS
  | '+', Some '=' -> two Token.PLUSEQ
  | '*', Some '=' -> two Token.STAREQ
  | '/', Some '=' -> two Token.SLASHEQ
  | '&', Some '&' -> two Token.AMPAMP
  | '&', Some '=' -> two Token.AMPEQ
  | '|', Some '|' -> two Token.PIPEPIPE
  | '|', Some '=' -> two Token.PIPEEQ
  | '^', Some '=' -> two Token.CARETEQ
  | '<', Some '<' ->
      if st.pos + 2 < String.length st.src && st.src.[st.pos + 2] = '=' then
        three Token.LSHIFTEQ
      else two Token.LSHIFT
  | '>', Some '>' ->
      if st.pos + 2 < String.length st.src && st.src.[st.pos + 2] = '=' then
        three Token.RSHIFTEQ
      else two Token.RSHIFT
  | '<', Some '=' -> two Token.LE
  | '>', Some '=' -> two Token.GE
  | '=', Some '=' -> two Token.EQEQ
  | '!', Some '=' -> two Token.NEQ
  | '(', _ -> one Token.LPAREN
  | ')', _ -> one Token.RPAREN
  | '{', _ -> one Token.LBRACE
  | '}', _ -> one Token.RBRACE
  | '[', _ -> one Token.LBRACKET
  | ']', _ -> one Token.RBRACKET
  | ';', _ -> one Token.SEMI
  | ',', _ -> one Token.COMMA
  | '.', _ -> one Token.DOT
  | '+', _ -> one Token.PLUS
  | '-', _ -> one Token.MINUS
  | '*', _ -> one Token.STAR
  | '/', _ -> one Token.SLASH
  | '%', _ -> one Token.PERCENT
  | '&', _ -> one Token.AMP
  | '|', _ -> one Token.PIPE
  | '^', _ -> one Token.CARET
  | '~', _ -> one Token.TILDE
  | '!', _ -> one Token.BANG
  | '<', _ -> one Token.LT
  | '>', _ -> one Token.GT
  | '=', _ -> one Token.ASSIGN
  | '?', _ -> one Token.QUESTION
  | ':', _ -> one Token.COLON
  | _ -> error st (Printf.sprintf "unexpected character %C" c)

let tokenize src =
  let st = { src; pos = 0; line = 1; col = 1 } in
  let out = ref [] in
  let rec go () =
    skip_ws_and_comments st;
    let l = loc st in
    match peek st with
    | None -> out := { Token.tok = Token.EOF; loc = l } :: !out
    | Some c ->
        let tok =
          if is_ident_start c then lex_ident st
          else if is_digit c then lex_number st
          else if c = '"' then lex_string st
          else if c = '\'' then lex_char st
          else lex_punct st
        in
        out := { Token.tok; loc = l } :: !out;
        go ()
  in
  go ();
  List.rev !out
