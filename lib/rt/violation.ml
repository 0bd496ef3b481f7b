type kind =
  | Bounds
  | Load_store
  | Indirect_call
  | Double_free
  | Illegal_free
  | Uninit_pointer
  | Userspace_escape

type t = { v_kind : kind; v_metapool : string; v_addr : int; v_msg : string }

exception Safety_violation of t

let kind_to_string = function
  | Bounds -> "bounds"
  | Load_store -> "load-store"
  | Indirect_call -> "indirect-call"
  | Double_free -> "double-free"
  | Illegal_free -> "illegal-free"
  | Uninit_pointer -> "uninitialized-pointer"
  | Userspace_escape -> "userspace-escape"

let violation k ~metapool ~addr msg =
  Stats.bump_violation ();
  if !Trace.active then
    Trace.emit_violation ~kind:(kind_to_string k) ~pool:metapool ~addr;
  raise (Safety_violation { v_kind = k; v_metapool = metapool; v_addr = addr; v_msg = msg })

let to_string v =
  Printf.sprintf "SVA safety violation [%s] pool=%s addr=0x%x: %s"
    (kind_to_string v.v_kind)
    (if v.v_metapool = "" then "<none>" else v.v_metapool)
    v.v_addr v.v_msg
