(* Hash integer lattice coordinates and a seed to a float in [-1, 1].
   Uses the splitmix64 finalizer for good avalanche behaviour.  The
   Int64 steps look heavyweight but stay unboxed: the native compiler
   keeps boxed-number intermediates in registers within straight-line
   code (a 16-bit-limb reimplementation on native ints benchmarked
   ~40% slower than this). *)
let lattice ~seed ix iy =
  let h = Int64.of_int ((ix * 0x1F1F1F1F) lxor (iy * 0x5F356495) lxor (seed * 0x2545F491)) in
  let z = Int64.add h 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  let bits = Int64.to_float (Int64.shift_right_logical z 11) in
  (bits /. 9007199254740992.0 *. 2.0) -. 1.0

let smoothstep t = t *. t *. (3.0 -. (2.0 *. t))

let value ~seed x y =
  let xf = Float.floor x and yf = Float.floor y in
  let x0 = int_of_float xf and y0 = int_of_float yf in
  let fx = x -. xf and fy = y -. yf in
  let sx = smoothstep fx and sy = smoothstep fy in
  let v00 = lattice ~seed x0 y0 in
  let v10 = lattice ~seed (x0 + 1) y0 in
  let v01 = lattice ~seed x0 (y0 + 1) in
  let v11 = lattice ~seed (x0 + 1) (y0 + 1) in
  let a = v00 +. (sx *. (v10 -. v00)) in
  let b = v01 +. (sx *. (v11 -. v01)) in
  a +. (sy *. (b -. a))

(* [fbm] is the innermost loop of every DEM evaluation — an LOS sweep
   runs it tens of millions of times — and without flambda each call
   boundary in the naive octave recursion boxes its float arguments
   and results (~400 words per terrain sample, gigabytes per sweep).
   So the octave loop below inlines {!value} and {!lattice} by hand
   into one function body, where every float intermediate is a
   let-bound local the compiler keeps unboxed, and carries the loop
   state in a 4-slot floatarray (unboxed storage, one small allocation
   per call).  The arithmetic — each expression and its operation
   order — is copied verbatim from {!value}/{!lattice}/{!smoothstep},
   so results are bit-identical to calling them; [value] remains the
   readable single-octave specification. *)

(* The 4-slot loop-state floatarray, once per domain instead of once
   per call: tens of millions of [fbm] calls per sweep made that "one
   small allocation per call" the dominant minor-heap source.  The
   state is dead outside a single call (written before every read), so
   domain-local reuse cannot couple calls or domains. *)
let fbm_state = Domain.DLS.new_key (fun () -> Float.Array.create 4)

let[@cisp.zero_alloc] fbm ~seed ~octaves ~lacunarity ~gain x y =
  if octaves <= 0 then invalid_arg "Noise.fbm: octaves <= 0";
  (* The splitmix64 finalizer of {!lattice}, except the seed term: the
     caller adds the per-corner coordinate products.  A local function
     is too large for the non-flambda inliner, and as a call it would
     box its float result at every one of the four corners — so the
     finalizer runs on the pre-mixed key directly. *)
  let[@inline] corner key =
    let h = Int64.of_int key in
    let z = Int64.add h 0x9E3779B97F4A7C15L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    let bits = Int64.to_float (Int64.shift_right_logical z 11) in
    (bits /. 9007199254740992.0 *. 2.0) -. 1.0
  in
  (* freq, amp, sum, norm *)
  let st = Domain.DLS.get fbm_state in
  Float.Array.unsafe_set st 0 1.0;
  Float.Array.unsafe_set st 1 1.0;
  Float.Array.unsafe_set st 2 0.0;
  Float.Array.unsafe_set st 3 0.0;
  for i = 0 to octaves - 1 do
    let freq = Float.Array.unsafe_get st 0 in
    let amp = Float.Array.unsafe_get st 1 in
    let seed = seed + i in
    let x = x *. freq and y = y *. freq in
    let xf = Float.floor x and yf = Float.floor y in
    let x0 = int_of_float xf and y0 = int_of_float yf in
    let fx = x -. xf and fy = y -. yf in
    let sx = fx *. fx *. (3.0 -. (2.0 *. fx)) in
    let sy = fy *. fy *. (3.0 -. (2.0 *. fy)) in
    let ks = seed * 0x2545F491 in
    let kx0 = x0 * 0x1F1F1F1F and kx1 = (x0 + 1) * 0x1F1F1F1F in
    let ky0 = y0 * 0x5F356495 and ky1 = (y0 + 1) * 0x5F356495 in
    let v00 = corner (kx0 lxor ky0 lxor ks) in
    let v10 = corner (kx1 lxor ky0 lxor ks) in
    let v01 = corner (kx0 lxor ky1 lxor ks) in
    let v11 = corner (kx1 lxor ky1 lxor ks) in
    let a = v00 +. (sx *. (v10 -. v00)) in
    let b = v01 +. (sx *. (v11 -. v01)) in
    let v = a +. (sy *. (b -. a)) in
    Float.Array.unsafe_set st 2 (Float.Array.unsafe_get st 2 +. (amp *. v));
    Float.Array.unsafe_set st 3 (Float.Array.unsafe_get st 3 +. amp);
    Float.Array.unsafe_set st 0 (freq *. lacunarity);
    Float.Array.unsafe_set st 1 (amp *. gain)
  done;
  Float.Array.unsafe_get st 2 /. Float.Array.unsafe_get st 3

let ridged ~seed ~octaves x y =
  let v = fbm ~seed ~octaves ~lacunarity:2.0 ~gain:0.5 x y in
  let ridge = 1.0 -. Float.abs v in
  ridge *. ridge
