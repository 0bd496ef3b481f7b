let frame_bits = 12
let frame_size = 1 lsl frame_bits
let frame_mask = frame_size - 1

(* Every untouched slot of every store aliases this frame.  No path writes
   it: each store swaps a private frame into the slot first. *)
let zero = Bytes.make frame_size '\000'

type t = { frames : Bytes.t array; len : int }

let create len =
  { frames = Array.make ((len + frame_mask) lsr frame_bits) zero; len }

let length s = s.len

(* Frame [i], made private so it can be stored into. *)
let writable s i =
  let f = s.frames.(i) in
  if f != zero then f
  else begin
    let f = Bytes.make frame_size '\000' in
    s.frames.(i) <- f;
    f
  end

let frame_of s ~off =
  let f = s.frames.(off lsr frame_bits) in
  if f == zero then None else Some f

let byte s off = Bytes.get_uint8 s.frames.(off lsr frame_bits) (off land frame_mask)

(* A load that straddles two frames, assembled byte by byte. *)
let get_straddling s off width =
  let v = ref 0L in
  for k = width - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (byte s (off + k)))
  done;
  let sh = 64 - (8 * width) in
  Int64.shift_right (Int64.shift_left !v sh) sh

let bad_width name = invalid_arg ("Frames." ^ name ^ ": width")

let get_int s ~off ~width =
  let po = off land frame_mask in
  if po + width <= frame_size then
    let f = s.frames.(off lsr frame_bits) in
    match width with
    | 1 -> Int64.of_int (Bytes.get_int8 f po)
    | 2 -> Int64.of_int (Bytes.get_int16_le f po)
    | 4 -> Int64.of_int32 (Bytes.get_int32_le f po)
    | 8 -> Bytes.get_int64_le f po
    | _ -> bad_width "get_int"
  else
    match width with
    | 2 | 4 | 8 -> get_straddling s off width
    | _ -> bad_width "get_int"

let set_int s ~off ~width v =
  let po = off land frame_mask in
  if po + width <= frame_size then
    match width with
    | 1 -> Bytes.set_int8 (writable s (off lsr frame_bits)) po (Int64.to_int v)
    | 2 -> Bytes.set_int16_le (writable s (off lsr frame_bits)) po (Int64.to_int v)
    | 4 -> Bytes.set_int32_le (writable s (off lsr frame_bits)) po (Int64.to_int32 v)
    | 8 -> Bytes.set_int64_le (writable s (off lsr frame_bits)) po v
    | _ -> bad_width "set_int"
  else
    match width with
    | 2 | 4 | 8 ->
        for k = 0 to width - 1 do
          let a = off + k in
          Bytes.set_uint8
            (writable s (a lsr frame_bits))
            (a land frame_mask)
            (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xff)
        done
    | _ -> bad_width "set_int"

(* Bytes from [off] up to the end of its frame, capped at [len]. *)
let chunk off len = min len (frame_size - (off land frame_mask))

let rec read_into s off b pos len =
  if len > 0 then begin
    let n = chunk off len in
    Bytes.blit s.frames.(off lsr frame_bits) (off land frame_mask) b pos n;
    read_into s (off + n) b (pos + n) (len - n)
  end

let read s ~off ~len =
  let b = Bytes.create len in
  read_into s off b 0 len;
  b

let rec write_from s off b pos len =
  if len > 0 then begin
    let n = chunk off len in
    Bytes.blit b pos (writable s (off lsr frame_bits)) (off land frame_mask) n;
    write_from s (off + n) b (pos + n) (len - n)
  end

let write s ~off b ~len = write_from s off b 0 len

(* [n] bytes that lie inside one frame on each side.  Zeros onto an
   untouched frame change nothing, so they allocate nothing.  The source
   frame is fetched after the destination's is made private: both may be
   the same slot. *)
let copy src soff dst doff n =
  let di = doff lsr frame_bits in
  if not (src.frames.(soff lsr frame_bits) == zero && dst.frames.(di) == zero)
  then begin
    let df = writable dst di in
    Bytes.blit src.frames.(soff lsr frame_bits) (soff land frame_mask) df
      (doff land frame_mask) n
  end

let rec copy_up src soff dst doff len =
  if len > 0 then begin
    let n = chunk soff (chunk doff len) in
    copy src soff dst doff n;
    copy_up src (soff + n) dst (doff + n) (len - n)
  end

(* Bytes below [off] down to the start of its frame, capped at [len]. *)
let chunk_below off len = min len (((off - 1) land frame_mask) + 1)

(* From the top down, for a move to a higher overlapping range: every
   chunk is read before any chunk written after it can cover it. *)
let rec copy_down src send dst dend len =
  if len > 0 then begin
    let n = chunk_below send (chunk_below dend len) in
    copy src (send - n) dst (dend - n) n;
    copy_down src (send - n) dst (dend - n) (len - n)
  end

let blit ~src ~src_off ~dst ~dst_off ~len =
  if src == dst && dst_off > src_off && dst_off < src_off + len then
    copy_down src (src_off + len) dst (dst_off + len) len
  else copy_up src src_off dst dst_off len

let rec fill s ~off ~len c =
  if len > 0 then begin
    let n = chunk off len in
    let i = off lsr frame_bits in
    if not (c = '\000' && s.frames.(i) == zero) then
      Bytes.fill (writable s i) (off land frame_mask) n c;
    fill s ~off:(off + n) ~len:(len - n) c
  end
