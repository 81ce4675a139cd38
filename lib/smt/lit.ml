type t = int

let make v positive = (v lsl 1) lor (if positive then 0 else 1)
let pos v = v lsl 1
let neg_of_var v = (v lsl 1) lor 1
let var l = l lsr 1
let negate l = l lxor 1
let is_pos l = l land 1 = 0

let to_string l = (if is_pos l then "" else "-") ^ string_of_int (var l)
