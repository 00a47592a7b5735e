"""Golden runs: exact results of fixed-seed DPSEA, cGA, DE and PSO runs.

Each case pins ``best_fitness``, ``best_genome``, the budget's
``total_eval`` and ``total_unchanged`` and every ``CycleRecord`` of the
trace, compared with ``==``. A change that only restructures the code
(how the population is stored, how a switching step is laid out) must
keep the RNG draw order and the floating-point operations, and so pass
unchanged. A change that alters the search on purpose re-records these
values and says so.

The budgets are small but one, so the module runs in a few seconds. Besides
the defaults, the cases cover a skipped initial design (two budgets it does
not fit in), rs = 3 and sigma = 0, two 50-D runs whose surrogate fits have 101
columns (one of them fits the 4180-row initial design), one noiseless
sphere run at the full 90k budget, whose long trace is pinned by its
SHA-256, and two small-population sphere runs whose steps fit linear and
constant models.
"""

import dataclasses
import hashlib
from dataclasses import dataclass, field

import pytest

from dpsea import baselines, engine
from dpsea.benchmarks import NoiseModel, make_function
from dpsea.engine import DpseaParams
from dpsea.ga import GaParams
from dpsea.stochastics import RngState


@dataclass(frozen=True)
class Golden:
    function: str
    dimension: int
    sigma: float
    rs: int
    budget: int
    seed: int
    best_fitness: float
    best_genome: list
    total_eval: int
    total_unchanged: int
    trace: list
    params: dict = field(default_factory=dict)
    tag: str = ""  # tells apart cases that share function, dimension and seed


def assert_matches(res, want):
    assert res.best_fitness == want.best_fitness
    assert res.best_genome.tolist() == want.best_genome
    assert res.budget.total_eval == want.total_eval
    assert res.budget.total_unchanged == want.total_unchanged
    trace = [dataclasses.astuple(r) for r in res.trace]
    if isinstance(want.trace, str):
        trace = hashlib.sha256(repr(trace).encode()).hexdigest()
    assert trace == want.trace


def case_id(g):
    name = f"{g.function}-{g.dimension}d-seed{g.seed}"
    return f"{name}-{g.tag}" if g.tag else name


DPSEA_GOLDEN = [
    Golden(
        function='sphere', dimension=5, sigma=1.0, rs=1, budget=4000, seed=11,
        best_fitness=6.597771672347569e-07,
        best_genome=[
            0.00010196859042971851,
            -0.0006969198730537987,
            0.00010963398554716887,
            -0.00034635261419339663,
            0.00017805201542710384,
        ],
        total_eval=3923,
        total_unchanged=368,
        trace=[
            (0, 773, 6.597771672347569e-07, 1, 1),
            (1, 953, 6.597771672347569e-07, 1, 1),
            (2, 1133, 6.597771672347569e-07, 1, 1),
            (3, 1313, 6.597771672347569e-07, 1, 1),
            (4, 1493, 6.597771672347569e-07, 1, 1),
            (5, 1673, 6.597771672347569e-07, 1, 1),
            (6, 1853, 6.597771672347569e-07, 1, 1),
            (7, 2033, 6.597771672347569e-07, 1, 1),
            (8, 2213, 6.597771672347569e-07, 1, 1),
            (9, 2393, 6.597771672347569e-07, 1, 1),
            (10, 2573, 6.597771672347569e-07, 1, 1),
            (11, 2753, 6.597771672347569e-07, 1, 1),
            (12, 2933, 6.597771672347569e-07, 1, 1),
            (13, 3113, 6.597771672347569e-07, 1, 1),
            (14, 3293, 6.597771672347569e-07, 1, 1),
            (15, 3473, 6.597771672347569e-07, 1, 1),
            (16, 3653, 6.597771672347569e-07, 1, 1),
            (17, 3833, 6.597771672347569e-07, 1, 1),
            (18, 3923, 6.597771672347569e-07, 1, 1),
        ],
    ),
    Golden(
        function='sphere', dimension=5, sigma=0.5, rs=1, budget=500, seed=16,
        params=dict(ga=GaParams(pop_size=20, n_elites=2)),
        best_fitness=259.9687212453866,
        best_genome=[
            -1.3899566909171754,
            6.908460310115453,
            -9.009606664584965,
            -6.461491865707356,
            9.348049443877825,
        ],
        total_eval=494,
        total_unchanged=26,
        trace=[
            (0, 58, 360.36434779253625, 1, 1),
            (1, 96, 351.17940539656075, 1, 1),
            (2, 134, 343.5271982944337, 1, 1),
            (3, 172, 339.1051791214248, 1, 1),
            (4, 210, 328.35271393910716, 1, 1),
            (5, 248, 318.52080543004524, 1, 1),
            (6, 286, 309.5261914546933, 1, 1),
            (7, 324, 300.38593967042806, 1, 1),
            (8, 362, 289.8823761831847, 1, 1),
            (9, 400, 278.85691768664566, 1, 1),
            (10, 438, 271.4128314096197, 1, 1),
            (11, 476, 262.41669781141775, 1, 1),
            (12, 494, 259.9687212453866, 1, 1),
        ],
    ),
    Golden(
        function='griewank', dimension=10, sigma=0.5, rs=1, budget=4000, seed=12,
        best_fitness=0.00333479029246897,
        best_genome=[
            99.98087454823386,
            99.98603223761731,
            100.06938284757499,
            100.04721753497668,
            99.90293773987187,
            100.10029157177273,
            100.02803013079303,
            100.00090768702582,
            99.95638550488005,
            100.03921161774355,
        ],
        total_eval=3979,
        total_unchanged=330,
        trace=[
            (0, 1189, 0.0034584036690594733, 1, 1),
            (1, 1369, 0.0034584036690594733, 1, 1),
            (2, 1549, 0.0034584036690594733, 1, 1),
            (3, 1729, 0.0034584036690594733, 1, 1),
            (4, 1909, 0.0034584036690594733, 1, 1),
            (5, 2089, 0.0034584036690594733, 1, 1),
            (6, 2269, 0.0034584036690594733, 1, 1),
            (7, 2449, 0.0034584036690594733, 1, 1),
            (8, 2629, 0.0034584036690594733, 1, 1),
            (9, 2809, 0.0034584036690594733, 1, 1),
            (10, 2989, 0.0034584036690594733, 1, 1),
            (11, 3169, 0.0034584036690594733, 1, 1),
            (12, 3349, 0.0034584036690594733, 1, 1),
            (13, 3529, 0.0034584036690594733, 1, 1),
            (14, 3709, 0.00333479029246897, 1, 1),
            (15, 3889, 0.00333479029246897, 1, 1),
            (16, 3979, 0.00333479029246897, 1, 1),
        ],
    ),
    Golden(
        function='rastrigin1', dimension=10, sigma=0.0, rs=3, budget=6000, seed=13,
        best_fitness=0.04541988434208122,
        best_genome=[
            0.001197441113863487,
            0.0012121677659496512,
            -0.005465737335638184,
            0.005795644450649782,
            -0.004897209279578563,
            0.008278411735292857,
            0.0013951463417176903,
            0.007984130857296568,
            -0.0002551584105067392,
            -0.0020826944064097665,
        ],
        total_eval=5817,
        total_unchanged=216,
        trace=[
            (0, 3573, 6.876964802894705, 1, 1),
            (1, 4143, 0.5415563465234783, 1, 1),
            (2, 4713, 0.15094196675772764, 1, 1),
            (3, 5277, 0.07583357532135437, 1, 1),
            (4, 5817, 0.04541988434208122, 1, 1),
        ],
    ),
    Golden(
        function='rosenbrock', dimension=10, sigma=0.3, rs=1, budget=4000, seed=14,
        best_fitness=91.32265654589456,
        best_genome=[
            -0.5164378596574551,
            0.3061244997979562,
            0.04918670558369001,
            -0.6446639536099934,
            0.9118039166329763,
            1.1046480140794255,
            1.3667807048721634,
            1.9110464511094885,
            3.671379479860983,
            13.51495062688436,
        ],
        total_eval=3949,
        total_unchanged=160,
        trace=[
            (0, 1199, 5790.72589744043, 1, 1),
            (1, 1389, 4563.170261567873, 1, 1),
            (2, 1579, 2638.791260048678, 1, 1),
            (3, 1769, 1335.115083442627, 1, 1),
            (4, 1959, 615.2527238631582, 1, 1),
            (5, 2149, 313.08800975018283, 1, 1),
            (6, 2339, 166.76719231502642, 1, 1),
            (7, 2529, 104.53106459213933, 1, 1),
            (8, 2719, 93.63802036043766, 1, 1),
            (9, 2909, 92.43249804373966, 1, 1),
            (10, 3099, 92.43249804373966, 1, 1),
            (11, 3289, 91.98292736200207, 1, 1),
            (12, 3479, 91.39389007539567, 1, 1),
            (13, 3669, 91.39389007539567, 1, 1),
            (14, 3859, 91.32265654589456, 1, 1),
            (15, 3949, 91.32265654589456, 1, 1),
        ],
    ),
    Golden(
        function='rosenbrock', dimension=10, sigma=0.5, rs=1, budget=1000, seed=17,
        best_fitness=143081.30170271883,
        best_genome=[
            1.6611692662695827,
            -4.244446662620476,
            0.7158893884625834,
            0.5756890701403743,
            4.382591827665417,
            -2.057943031698085,
            1.9943422243056863,
            -4.7279426597018475,
            -0.6980689057648113,
            1.4015466673870693,
        ],
        total_eval=950,
        total_unchanged=50,
        trace=[
            (0, 290, 226875.50975070384, 1, 1),
            (1, 480, 196348.33395726793, 1, 1),
            (2, 670, 176757.2349517557, 1, 1),
            (3, 860, 148930.4186601715, 1, 1),
            (4, 950, 143081.30170271883, 1, 1),
        ],
    ),
    # 50-D, a budget the initial design does not fit: every switching step
    # fits 101 columns, past the 32-column leaf of the factor's inverse
    Golden(
        function='rastrigin1', dimension=50, sigma=0.5, rs=1, budget=3000, seed=18,
        best_fitness=38.31072791916904,
        best_genome=[
            0.9735028329400895,
            0.9638391191366137,
            0.014508873837250885,
            0.011758236268424429,
            1.0272614351708598,
            -0.9891542493950629,
            -0.990144404153159,
            -0.9746492160982567,
            -1.984030312593973,
            0.012568509057025308,
            -0.9788720512990873,
            0.02094159793958079,
            0.9986443137761964,
            1.017114349146262,
            -0.002763267303839736,
            -0.95914772464128,
            0.0029595789673904464,
            -0.002318100502211575,
            0.9593345585653705,
            0.9923351583186442,
            -1.9574987273120168,
            0.0024556862106683234,
            1.0085029088169697,
            -1.9889503093166847,
            -1.0392208384762722,
            -0.01598491322483617,
            -1.0176567380941712,
            0.9771674062922501,
            -0.00036083648379894016,
            -0.0019390392866999906,
            0.027233745639315188,
            -1.0115923151080433,
            0.007702381519165492,
            -0.025118799312197338,
            0.027252513968811932,
            -0.004270828700565852,
            0.008571269341289985,
            0.02202944319934909,
            -0.01462989462635333,
            0.0033042900573547027,
            -1.024515367392189,
            -0.9850877552520556,
            0.9786425612271996,
            0.9911701742259517,
            -0.9917645129421655,
            -0.016825658554480875,
            0.012610717475761769,
            0.0048940182304335455,
            -0.974117182015478,
            0.025813662400732264,
        ],
        total_eval=2946,
        total_unchanged=154,
        trace=[
            (0, 289, 355.6814070310535, 1, 1),
            (1, 479, 345.3962237178312, 1, 1),
            (2, 669, 283.17239946424627, 1, 1),
            (3, 859, 235.86919930776924, 1, 1),
            (4, 1049, 168.97773244763852, 1, 1),
            (5, 1239, 127.55617885204589, 1, 1),
            (6, 1429, 88.60181487437234, 1, 1),
            (7, 1619, 64.39196130910415, 1, 1),
            (8, 1809, 52.375603502889874, 1, 1),
            (9, 1999, 45.61511542962444, 1, 1),
            (10, 2189, 43.23813423062103, 1, 1),
            (11, 2379, 41.24284110008011, 1, 1),
            (12, 2569, 39.79931279110241, 1, 1),
            (13, 2757, 38.688132722661294, 1, 1),
            (14, 2946, 38.31072791916904, 1, 1),
        ],
    ),
    # 50-D, a budget the initial design fits: its one surrogate fit has
    # 4180 rows and 101 columns
    Golden(
        function='rastrigin1', dimension=50, sigma=0.5, rs=1, budget=6000, seed=19,
        best_fitness=2.2620103499041306,
        best_genome=[
            0.015624586842725885,
            -0.008931004052325693,
            0.006214968584331137,
            -0.008390724947217734,
            0.012772521795818,
            -0.0020285979026187896,
            -0.01623957627006331,
            -0.0023636204690377052,
            -0.011940688049406747,
            -0.0024287591058858517,
            0.015597546166669994,
            -0.018160745013517818,
            0.01587320019003362,
            -0.0009524958952561299,
            0.021346932942101673,
            -0.027016563429191724,
            0.01208690760497271,
            0.0010559005084296198,
            -0.020513017802069877,
            0.0049180067044479366,
            -0.00918431587191495,
            0.0071036781611552875,
            -0.015035541183238655,
            0.006001194837031113,
            0.02735912636942713,
            0.010003330207806978,
            -0.028349461878801697,
            -0.017402055105208557,
            -0.00514172957722008,
            0.019587339444565345,
            -0.0024160074987387313,
            0.021306658416358475,
            -0.0004717307615849263,
            -0.011145390477726523,
            -0.01418324777575325,
            -0.02207974890283672,
            -0.00724458596554153,
            -0.020185060749904993,
            -0.01065783587707548,
            -0.027246150835841254,
            -0.03395597849190018,
            -0.009379965824303126,
            -0.009484507597410548,
            -0.006943313061024072,
            0.005524841612484394,
            -0.019575089623243568,
            -0.00596259665906281,
            -0.024328963323843017,
            0.0052953063499005144,
            -0.0004990027158557871,
        ],
        total_eval=5931,
        total_unchanged=99,
        trace=[
            (0, 4520, 43.683339739696976, 1, 1),
            (1, 4710, 20.94063358822922, 1, 1),
            (2, 4900, 11.82542606102578, 1, 1),
            (3, 5090, 6.514610208532758, 1, 1),
            (4, 5280, 4.310244144745923, 1, 1),
            (5, 5468, 3.1065317117027007, 1, 1),
            (6, 5655, 2.872585329622325, 1, 1),
            (7, 5841, 2.2620103499041306, 1, 1),
            (8, 5931, 2.2620103499041306, 1, 1),
        ],
    ),
    # acceptance criterion 1's regime: noiseless sphere at the full 90k,
    # where estimates near 1e-34 decide the orderings; its 497 cycles are
    # pinned by the SHA-256 of their tuples' repr
    Golden(
        function='sphere', dimension=5, sigma=0.0, rs=1, budget=90_000, seed=1,
        best_fitness=1.925929944387236e-34,
        best_genome=[
            -6.938893903907228e-18,
            -6.938893903907228e-18,
            -6.938893903907228e-18,
            6.938893903907228e-18,
            0.0,
        ],
        total_eval=89970,
        total_unchanged=9926,
        trace='2d9148f37a6180890acba2b1930d95db947510f56e2975d114c66f820d6efc21',
    ),
    # the two bases below the diagonal quadratic, each fitted at every step
    # and mapped to original coordinates only where the step earns surrogate
    # generations: a linear model (11 samples on 5-D) where 49 of 147 steps
    # earn some, and a constant one (5 samples), whose fidelity earns none in
    # 376 steps; both traces pinned by their SHA-256
    Golden(
        function='sphere', dimension=5, sigma=0.5, rs=1, budget=2000, seed=11,
        params=dict(ga=GaParams(pop_size=6, n_elites=1)), tag='linear',
        best_fitness=1.5657322890387197e-07,
        best_genome=[
            0.00034695294877224125,
            -0.00011394756539719743,
            0.00010679871694146545,
            0.0001085698534708541,
            -4.41061890712784e-06,
        ],
        total_eval=1997,
        total_unchanged=269,
        trace='ad85a4da33b318d25bd111b205bbea01e0d4bef768d7d1005bce88906fd2f170',
    ),
    Golden(
        function='sphere', dimension=5, sigma=0.5, rs=1, budget=2000, seed=11,
        params=dict(ga=GaParams(pop_size=3, n_elites=1)), tag='constant',
        best_fitness=3.5208986107040183e-07,
        best_genome=[
            7.575381281734433e-05,
            -0.00016144346023935546,
            0.00024831088443338256,
            -0.0001383969435795593,
            -0.0004893620548629898,
        ],
        total_eval=2000,
        total_unchanged=751,
        trace='9317443a19a040049e23059c86e5dc5316a8a5151c4c0ebdea564f37f394f9be',
    ),
]

CGA_GOLDEN = [
    Golden(
        function='sphere', dimension=5, sigma=1.0, rs=2, budget=3000, seed=21,
        best_fitness=38.95211296708679,
        best_genome=[
            2.0627445513233122,
            -2.3898781413822183,
            0.3618275401398889,
            5.2784470268709,
            0.9963725047041014,
        ],
        total_eval=2720,
        total_unchanged=280,
        trace=[
            (0, 200, 2704.7574621895583, 0, 0),
            (1, 380, 514.230442510982, 0, 0),
            (2, 560, 181.94452732337112, 0, 0),
            (3, 740, 129.0953433263296, 0, 0),
            (4, 920, 78.33450810536593, 0, 0),
            (5, 1100, 59.812967215858365, 0, 0),
            (6, 1280, 59.812967215858365, 0, 0),
            (7, 1460, 51.3061097461394, 0, 0),
            (8, 1640, 49.287227218584846, 0, 0),
            (9, 1820, 41.433971635816846, 0, 0),
            (10, 2000, 41.31905634340943, 0, 0),
            (11, 2180, 40.22198028133832, 0, 0),
            (12, 2360, 39.95678998768203, 0, 0),
            (13, 2540, 39.13475780889251, 0, 0),
            (14, 2720, 38.95211296708679, 0, 0),
        ],
    ),
    Golden(
        function='griewank', dimension=10, sigma=0.0, rs=1, budget=2000, seed=22,
        best_fitness=8.506437629213256,
        best_genome=[
            53.14182911317142,
            38.02830521240599,
            34.099259166669114,
            25.58247111738324,
            178.33774736898891,
            61.922765325498176,
            49.11698849454362,
            110.2227706850062,
            37.22332508802365,
            127.75450746766218,
        ],
        total_eval=1810,
        total_unchanged=190,
        trace=[
            (0, 100, 101.96202959250105, 0, 0),
            (1, 190, 20.880758389338606, 0, 0),
            (2, 280, 20.880758389338606, 0, 0),
            (3, 370, 20.880758389338606, 0, 0),
            (4, 460, 13.537334541353225, 0, 0),
            (5, 550, 10.065347224760469, 0, 0),
            (6, 640, 9.4129774142342, 0, 0),
            (7, 730, 9.357654859773945, 0, 0),
            (8, 820, 8.99299253289077, 0, 0),
            (9, 910, 8.721509917005562, 0, 0),
            (10, 1000, 8.721509917005562, 0, 0),
            (11, 1090, 8.699415635030563, 0, 0),
            (12, 1180, 8.661242499075689, 0, 0),
            (13, 1270, 8.573159121071505, 0, 0),
            (14, 1360, 8.573159121071505, 0, 0),
            (15, 1450, 8.538660163002579, 0, 0),
            (16, 1540, 8.534398116821835, 0, 0),
            (17, 1630, 8.519782289573907, 0, 0),
            (18, 1720, 8.519782289573907, 0, 0),
            (19, 1810, 8.506437629213256, 0, 0),
        ],
    ),
]

DE_GOLDEN = [
    Golden(
        function='sphere', dimension=5, sigma=0.5, rs=2, budget=2000, seed=31,
        best_fitness=29.934668446143537,
        best_genome=[
            -0.27541963604875974,
            3.223518281559759,
            -2.500715659709602,
            0.879363481256143,
            3.5271636502703654,
        ],
        total_eval=2000,
        total_unchanged=0,
        trace=[
            (0, 100, 2295.589542892767, 0, 0),
            (1, 200, 1844.718701762735, 0, 0),
            (2, 300, 1844.718701762735, 0, 0),
            (3, 400, 1844.718701762735, 0, 0),
            (4, 500, 1269.8553625871853, 0, 0),
            (5, 600, 1269.8553625871853, 0, 0),
            (6, 700, 1269.8553625871853, 0, 0),
            (7, 800, 956.7088873208494, 0, 0),
            (8, 900, 213.3295855509547, 0, 0),
            (9, 1000, 213.3295855509547, 0, 0),
            (10, 1100, 213.3295855509547, 0, 0),
            (11, 1200, 213.3295855509547, 0, 0),
            (12, 1300, 213.3295855509547, 0, 0),
            (13, 1400, 213.3295855509547, 0, 0),
            (14, 1500, 213.3295855509547, 0, 0),
            (15, 1600, 213.3295855509547, 0, 0),
            (16, 1700, 213.3295855509547, 0, 0),
            (17, 1800, 102.92019932858517, 0, 0),
            (18, 1900, 29.934668446143537, 0, 0),
            (19, 2000, 29.934668446143537, 0, 0),
        ],
    ),
]

PSO_GOLDEN = [
    Golden(
        function='rastrigin1', dimension=5, sigma=1.0, rs=3, budget=900, seed=32,
        best_fitness=35.6488894412293,
        best_genome=[
            -1.8838738978899388,
            1.5184008456744507,
            -0.01578145647842233,
            0.1837604098343526,
            -0.9572466194395748,
        ],
        total_eval=900,
        total_unchanged=0,
        trace=[
            (0, 60, 55.48398378062194, 0, 0),
            (1, 120, 41.223510288924516, 0, 0),
            (2, 180, 41.223510288924516, 0, 0),
            (3, 240, 41.223510288924516, 0, 0),
            (4, 300, 41.223510288924516, 0, 0),
            (5, 360, 39.08365143664618, 0, 0),
            (6, 420, 39.08365143664618, 0, 0),
            (7, 480, 39.08365143664618, 0, 0),
            (8, 540, 39.08365143664618, 0, 0),
            (9, 600, 39.08365143664618, 0, 0),
            (10, 660, 39.08365143664618, 0, 0),
            (11, 720, 39.08365143664618, 0, 0),
            (12, 780, 35.6488894412293, 0, 0),
            (13, 840, 35.6488894412293, 0, 0),
            (14, 900, 35.6488894412293, 0, 0),
        ],
    ),
]


@pytest.mark.parametrize("want", DPSEA_GOLDEN, ids=case_id)
def test_dpsea_run_is_bit_identical(want):
    fn = make_function(want.function, dimension=want.dimension)
    params = DpseaParams(max_total_eval=want.budget, rs_merge=want.rs, **want.params)
    res = engine.run(fn, NoiseModel(0.0, want.sigma), params, RngState(want.seed))
    assert_matches(res, want)


@pytest.mark.parametrize("want", CGA_GOLDEN, ids=case_id)
def test_run_cga_is_bit_identical(want):
    fn = make_function(want.function, dimension=want.dimension)
    cfg = baselines.CgaConfig(rs=want.rs, total_eval=want.budget)
    res = baselines.run_cga(fn, NoiseModel(0.0, want.sigma), cfg, RngState(want.seed))
    assert_matches(res, want)


@pytest.mark.parametrize("want", DE_GOLDEN, ids=case_id)
def test_run_de_is_bit_identical(want):
    fn = make_function(want.function, dimension=want.dimension)
    cfg = baselines.DeConfig(rs=want.rs, total_eval=want.budget)
    res = baselines.run_de(fn, NoiseModel(0.0, want.sigma), cfg, RngState(want.seed))
    assert_matches(res, want)


@pytest.mark.parametrize("want", PSO_GOLDEN, ids=case_id)
def test_run_pso_is_bit_identical(want):
    fn = make_function(want.function, dimension=want.dimension)
    cfg = baselines.PsoConfig(rs=want.rs, total_eval=want.budget)
    res = baselines.run_pso(fn, NoiseModel(0.0, want.sigma), cfg, RngState(want.seed))
    assert_matches(res, want)
