(* Both columns are flat unboxed arrays, so push and pop allocate
   nothing: Dijkstra's relaxation loop runs under the zero-alloc
   contract (L10), which [push], [pop_min] and [min_key] carry. *)

type t = {
  mutable keys : float array;
  mutable vals : int array;
  mutable size : int;
}

let create () = { keys = Array.make 64 0.0; vals = Array.make 64 0; size = 0 }
let length h = h.size

let[@cisp.alloc_ok "amortized: doubling growth of the preallocated key/payload columns"] grow
    h =
  let cap = Array.length h.keys in
  let keys = Array.make (cap * 2) 0.0 in
  let vals = Array.make (cap * 2) 0 in
  Array.blit h.keys 0 keys 0 cap;
  Array.blit h.vals 0 vals 0 cap;
  h.keys <- keys;
  h.vals <- vals

let[@inline] swap h i j =
  let k = h.keys.(i) in
  h.keys.(i) <- h.keys.(j);
  h.keys.(j) <- k;
  let v = h.vals.(i) in
  h.vals.(i) <- h.vals.(j);
  h.vals.(j) <- v

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.keys.(i) < h.keys.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < h.size && h.keys.(l) < h.keys.(i) then l else i in
  let smallest =
    if r < h.size && h.keys.(r) < h.keys.(smallest) then r else smallest
  in
  if smallest <> i then begin
    swap h i smallest;
    sift_down h smallest
  end

let[@cisp.zero_alloc] push h key v =
  if h.size = Array.length h.keys then grow h;
  h.keys.(h.size) <- key;
  h.vals.(h.size) <- v;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let[@inline] [@cisp.zero_alloc] min_key h =
  if h.size = 0 then invalid_arg "Heap.min_key: empty heap";
  h.keys.(0)

let[@cisp.zero_alloc] pop_min h =
  if h.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  let v = h.vals.(0) in
  h.size <- h.size - 1;
  h.keys.(0) <- h.keys.(h.size);
  h.vals.(0) <- h.vals.(h.size);
  if h.size > 0 then sift_down h 0;
  v
