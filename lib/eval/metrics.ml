let mape pairs =
  let total, count =
    List.fold_left
      (fun (acc, n) (predicted, measured) ->
         if measured = 0.0 then (acc, n)
         else (acc +. (Float.abs (predicted -. measured) /. Float.abs measured), n + 1))
      (0.0, 0) pairs
  in
  if count = 0 then 0.0 else 100.0 *. total /. float_of_int count

let pearson pairs =
  let n = float_of_int (List.length pairs) in
  if n < 2.0 then 0.0
  else begin
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pairs in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pairs in
    let mx = sx /. n and my = sy /. n in
    let cov, vx, vy =
      List.fold_left
        (fun (cov, vx, vy) (x, y) ->
           let dx = x -. mx and dy = y -. my in
           (cov +. (dx *. dy), vx +. (dx *. dx), vy +. (dy *. dy)))
        (0.0, 0.0, 0.0) pairs
    in
    if vx = 0.0 || vy = 0.0 then 0.0 else cov /. sqrt (vx *. vy)
  end

let kendall_tau pairs =
  let arr = Array.of_list pairs in
  let n = Array.length arr in
  if n < 2 then 0.0
  else begin
    let concordant = ref 0 and discordant = ref 0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let xi, yi = arr.(i) and xj, yj = arr.(j) in
        let sx = compare xi xj and sy = compare yi yj in
        if sx * sy > 0 then incr concordant
        else if sx * sy < 0 then incr discordant
      done
    done;
    let total = float_of_int (n * (n - 1) / 2) in
    float_of_int (!concordant - !discordant) /. total
  end

type summary = { mape : float; pearson : float; kendall : float }

let summarize pairs =
  { mape = mape pairs; pearson = pearson pairs; kendall = kendall_tau pairs }
