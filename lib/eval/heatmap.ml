(* Ten columns over 0-5 measured IPC.  The predicted axis has as many rows
   of the same width as the highest prediction needs, and at least ten. *)
let bins = 10
let max_measured = 5.0
let bin_width = max_measured /. float_of_int bins

(* counts.(row).(col); row 0 = highest bin *)
type t = int array array

let glyphs = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |]

let make pairs =
  let max_predicted =
    List.fold_left (fun acc (p, _) -> Float.max acc p) max_measured pairs
  in
  let rows = int_of_float (Float.ceil (max_predicted /. bin_width)) in
  let rows = max bins rows in
  let counts = Array.make_matrix rows bins 0 in
  List.iter
    (fun (predicted, measured) ->
       let col = min (bins - 1) (int_of_float (measured /. bin_width)) in
       let row_from_bottom =
         min (rows - 1) (int_of_float (predicted /. bin_width))
       in
       let row = rows - 1 - row_from_bottom in
       counts.(row).(col) <- counts.(row).(col) + 1)
    pairs;
  counts

let render counts =
  let buf = Buffer.create 1024 in
  let rows = Array.length counts in
  let peak =
    Array.fold_left (fun acc row -> Array.fold_left max acc row) 1 counts
  in
  let glyph count =
    if count = 0 then ' '
    else begin
      (* Log scale: sparse buckets must stay visible next to dense ones. *)
      let intensity =
        log (1.0 +. float_of_int count) /. log (1.0 +. float_of_int peak)
      in
      let idx =
        min (Array.length glyphs - 1)
          (1 + int_of_float (intensity *. float_of_int (Array.length glyphs - 2)))
      in
      glyphs.(idx)
    end
  in
  Buffer.add_string buf "predicted IPC\n";
  for row = 0 to rows - 1 do
    let upper = float_of_int (rows - row) *. bin_width in
    Buffer.add_string buf (Printf.sprintf "%5.1f |" upper);
    for col = 0 to bins - 1 do
      (* Mark the diagonal cell of each column with brackets. *)
      let diagonal = rows - 1 - row = col in
      let c = glyph counts.(row).(col) in
      if diagonal then begin
        Buffer.add_char buf '[';
        Buffer.add_char buf c;
        Buffer.add_char buf ']'
      end
      else begin
        Buffer.add_char buf ' ';
        Buffer.add_char buf c;
        Buffer.add_char buf ' '
      end
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf "      +";
  Buffer.add_string buf (String.make (3 * bins) '-');
  Buffer.add_char buf '\n';
  Buffer.add_string buf "       ";
  for col = 0 to bins - 1 do
    if col mod 2 = 1 then
      Buffer.add_string buf
        (Printf.sprintf "%6.1f" (float_of_int (col + 1) *. bin_width))
  done;
  Buffer.add_string buf "  measured IPC\n";
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (render t)
