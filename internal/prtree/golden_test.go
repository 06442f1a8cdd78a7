package prtree

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

// The golden tables below were recorded from a seeded anticorrelated
// 5000-tuple tree. CrossSkyProb and LocalSkyline promise bit-exact
// results for a fixed tree: they visit entries in node order and multiply
// the survival factors in that order (see CrossSkyProb). Any change to the
// node layout, the traversal or the bulk-load order that reorders those
// products shows up here as a flipped low bit.

// goldenDims are the two subspaces the tables cover: the full space and
// {0,1}.
var goldenDims = [2][]int{nil, {0, 1}}

// goldenProbes returns the fixed probe set: every 208th stored tuple (it
// must skip itself) and eight foreign points near the data's
// anti-diagonal plane.
func goldenProbes(db uncertain.DB) []uncertain.Tuple {
	var probes []uncertain.Tuple
	for i := 0; i < len(db); i += 208 {
		probes = append(probes, db[i])
	}
	for _, p := range []geom.Point{
		{0.5, 0.5, 0.5}, {0.45, 0.5, 0.5}, {0.2, 0.6, 0.7}, {0.7, 0.2, 0.6},
		{0.6, 0.7, 0.2}, {0.3, 0.3, 0.9}, {0.55, 0.45, 0.4}, {0.1, 0.9, 0.5},
	} {
		probes = append(probes, uncertain.Tuple{ID: uncertain.NoTuple, Point: p, Prob: 0.5})
	}
	return probes
}

// goldenProbe is one probe's results: CrossSkyProb and SkyProb bits in
// the full space, then in {0,1}.
type goldenProbe [4]uint64

// goldenMember is one local skyline member: its ID and P bits.
type goldenMember struct {
	id   uncertain.TupleID
	bits uint64
}

func TestGoldenBitExact(t *testing.T) {
	db := anticorrelatedDB(t, 5000)
	tr := Bulk(db, 3, 0)
	probes := goldenProbes(db)
	if len(probes) != len(goldenProbeBits) {
		t.Fatalf("%d probes, table has %d", len(probes), len(goldenProbeBits))
	}
	for i, probe := range probes {
		var got goldenProbe
		for k, dims := range goldenDims {
			got[2*k] = math.Float64bits(tr.CrossSkyProb(probe, dims))
			got[2*k+1] = math.Float64bits(tr.SkyProb(probe, dims))
		}
		if got != goldenProbeBits[i] {
			t.Errorf("probe %d (%v): bits %#x, want %#x", i, probe, got, goldenProbeBits[i])
		}
	}
	// LocalSkyline sorts by descending P, so the q=0.5 answer is the
	// q=0.2 table's prefix of members with P >= 0.5.
	for k, dims := range goldenDims {
		want := goldenSkyline[k]
		for _, q := range []float64{0.2, 0.5} {
			got := tr.LocalSkyline(q, dims)
			n := 0
			for n < len(want) && math.Float64frombits(want[n].bits) >= q {
				n++
			}
			if len(got) != n {
				t.Fatalf("dims %v q %v: %d members, want %d", dims, q, len(got), n)
			}
			for i, m := range got {
				if m.Tuple.ID != want[i].id || math.Float64bits(m.Prob) != want[i].bits {
					t.Fatalf("dims %v q %v member %d: id %d bits %#x, want id %d bits %#x",
						dims, q, i, m.Tuple.ID, math.Float64bits(m.Prob), want[i].id, want[i].bits)
				}
			}
		}
	}
}

// goldenProbeBits holds one goldenProbe per goldenProbes entry.
var goldenProbeBits = []goldenProbe{
	{0x3a704bc50c0521c3, 0x3a60caf9060ed2f1, 0x271e3a729f5b2fd9, 0x270f26675ac7e9a2},
	{0x3b21ac8f82546c3f, 0x3b195ba6532703c8, 0x0000000000000000, 0x0000000000000000},
	{0x3c5c0f2ccdc7b458, 0x3c3a740bc30f6d99, 0x0000000000000000, 0x0000000000000000},
	{0x3b36453b7c0bdf3c, 0x3b2f3331bd3e199d, 0x0000000000000000, 0x0000000000000000},
	{0x3d9b957a8a3be9bd, 0x3d94164577f97948, 0x32e14f75b20fc152, 0x32d9361b537f6039},
	{0x3ff0000000000000, 0x3fd7e3ad0c0b7345, 0x1bd0caf8f4ae36c3, 0x1bb912bb2b11eb3b},
	{0x3c1b6add634c4bb7, 0x3c0b15868c2ff471, 0x09d02ece4ff7fc26, 0x09bff8deebfd8592},
	{0x3989a87c8bf397b6, 0x39848157181c1760, 0x1fc75e6f835aba18, 0x1fc2acfc538dc2f0},
	{0x1e05e1f42dabf783, 0x1e053867b96f5531, 0x00000000007aa623, 0x000000000076efd7},
	{0x3fbb6dc31f84a9dd, 0x3f858f32ce637cfa, 0x3f5849fddc0b0524, 0x3f23176c92a6003e},
	{0x39569be63462fbf9, 0x3953cf2d5be9cd05, 0x22229c92dc1173df, 0x22204e92382f3b6c},
	{0x29200a838a384a29, 0x290a1c472c45d9b9, 0x0000000000000000, 0x0000000000000000},
	{0x3a9e57b8784dd137, 0x3a73f65ed372fffa, 0x0000000000000000, 0x0000000000000000},
	{0x3fa34b489a46a2f5, 0x3f98eca078787425, 0x3e5166e42addc095, 0x3e467ae20722490c},
	{0x1964b05f19fc75e6, 0x1956ac75387f4152, 0x0000000000000000, 0x0000000000000000},
	{0x36bcb87ff5ecf54b, 0x369b8594bc9f9c40, 0x0aa13e62c30912d4, 0x0a80861d3026829d},
	{0x2c8b9548ae19ac90, 0x2c63812018455782, 0x0000000000000000, 0x0000000000000000},
	{0x142008520fad4fd5, 0x141dea07be2172bf, 0x0000000000000000, 0x0000000000000000},
	{0x3f51891bbd9a3511, 0x3f0c8e58f8b9cbea, 0x0000000000000000, 0x0000000000000000},
	{0x395ed7294f441771, 0x393adaa6c2846b40, 0x0f756f72b5ba09e3, 0x0f52aa2749f4ded3},
	{0x377f07c7ddf16e50, 0x3772b2acb9f3f37a, 0x0000000000000000, 0x0000000000000000},
	{0x3e88b5423ba9a7cf, 0x3e646680b6c719a4, 0x0000000000000000, 0x0000000000000000},
	{0x3fcb048ec58f18c0, 0x3fc48f181d94e29a, 0x37b91a131afca345, 0x37b319dd8a346e11},
	{0x3174b7611b500b5e, 0x31671b6b2e08feff, 0x0000000000000000, 0x0000000000000000},
	{0x16634e99c873fcd9, 0x16509bd2e9742841, 0x0000000000000000, 0x0000000000000000},
	{0x39a2f317f131c399, 0x3992f317f131c399, 0x0000000000000000, 0x0000000000000000},
	{0x3bcaf8e415e4c11e, 0x3bbaf8e415e4c11e, 0x0000000000001b49, 0x0000000000000da4},
	{0x3aa77ebe5b12083b, 0x3a977ebe5b12083b, 0x2401c1167b2f1434, 0x23f1c1167b2f1434},
	{0x3bf94fcadafd7e84, 0x3be94fcadafd7e84, 0x1e911ca51e6ab3d1, 0x1e811ca51e6ab3d1},
	{0x3adc3c5c76cb9008, 0x3acc3c5c76cb9008, 0x0000000000000000, 0x0000000000000000},
	{0x3bd0d1741ba67e18, 0x3bc0d1741ba67e18, 0x3723d5476286be6e, 0x3713d5476286be6e},
	{0x3e64ae44e6aeb505, 0x3e54ae44e6aeb505, 0x0000000000000000, 0x0000000000000000},
	{0x3bd3d82ef234871c, 0x3bc3d82ef234871c, 0x1e0f7da4eeb12e98, 0x1dff7da4eeb12e98},
}

// goldenSkyline is LocalSkyline at q=0.2, per goldenDims entry.
var goldenSkyline = [2][]goldenMember{
	{
		{2976, 0x3feff00ba23248dd}, {4712, 0x3fefed5446b1d2b0}, {4276, 0x3fef9321891ad533},
		{880, 0x3fef3328167afab3}, {4444, 0x3fef15d4cce64521}, {2176, 0x3feeea50d3607248},
		{1339, 0x3feea63f4d3df4af}, {805, 0x3feea015a8d43ce5}, {1667, 0x3fee6d34316234c2},
		{946, 0x3fedaddc80818527}, {2117, 0x3fed9c0d486f302d}, {785, 0x3fed74ea4a146990},
		{1809, 0x3fed468fff219d90}, {2518, 0x3fed20c258cd3777}, {2931, 0x3fed14e54b0ed331},
		{2372, 0x3fed04ce7020900c}, {3764, 0x3fec6d9874f22682}, {1628, 0x3febf1d6da19d4a9},
		{1706, 0x3febdc0f237df9e4}, {879, 0x3feb9f909e081603}, {854, 0x3feb70bf1caf9792},
		{4954, 0x3feb61b1ce9f9380}, {2111, 0x3feb30de52958cea}, {3726, 0x3feb097d98d1e32e},
		{4569, 0x3feaeb1dca326cbe}, {1443, 0x3feada55051df01b}, {2681, 0x3feab9fd884ab062},
		{3692, 0x3feab3179de8145e}, {1519, 0x3fea7bb3f309d6d4}, {259, 0x3fea7346e1043ac7},
		{4146, 0x3fea2525e77b3327}, {1841, 0x3fe9c85e47ceaf43}, {1420, 0x3fe9be686bc5c96a},
		{4840, 0x3fe997fae7f9926e}, {4199, 0x3fe988a489be3780}, {1518, 0x3fe94b1a9313f23d},
		{3210, 0x3fe94a773dbd5e87}, {1859, 0x3fe948ae990c2bf1}, {4806, 0x3fe9314c81a812b8},
		{2585, 0x3fe92d5cc40cc2ce}, {3648, 0x3fe90abfb92a15d9}, {701, 0x3fe8e01a0580a48e},
		{4835, 0x3fe8dd69d14226e1}, {1430, 0x3fe87cf471dade96}, {507, 0x3fe87aeeb2f20534},
		{4230, 0x3fe87865005e5bb7}, {411, 0x3fe85ed7f680d730}, {206, 0x3fe85d39e76bada2},
		{3716, 0x3fe8345244fdc36e}, {23, 0x3fe826b5a5301dcc}, {3694, 0x3fe7c8d3fa5d4ed5},
		{4620, 0x3fe7bbf0f5589cbb}, {900, 0x3fe7b15d64e1a539}, {3472, 0x3fe79e04681b5bf8},
		{4594, 0x3fe7846953d3cc82}, {2624, 0x3fe7486ec891254a}, {1771, 0x3fe7202264a9bbff},
		{4963, 0x3fe6fac541283fbb}, {2675, 0x3fe6d567b5daf8e1}, {774, 0x3fe6d4524e07dc44},
		{3421, 0x3fe68c75d41981f8}, {908, 0x3fe66fa1020eed64}, {3802, 0x3fe62a6787bf12a2},
		{4959, 0x3fe61cac159f47ce}, {1703, 0x3fe5f97efe4f536e}, {4811, 0x3fe5b18295a8f243},
		{2197, 0x3fe55795616f224a}, {1008, 0x3fe514aafddc2cd9}, {576, 0x3fe50e75d56cd685},
		{1236, 0x3fe5097989b21f4f}, {4311, 0x3fe500e1a1b92c82}, {4878, 0x3fe4ea5f685ec792},
		{3990, 0x3fe4e58fa7a15b30}, {3202, 0x3fe4dc5cb7346e57}, {970, 0x3fe4c4cb9e958b40},
		{1136, 0x3fe4bf0ae33350ef}, {998, 0x3fe4968b5f8bae78}, {643, 0x3fe47a59956b6113},
		{1903, 0x3fe47794076deab1}, {2409, 0x3fe47020319467bd}, {20, 0x3fe46587c1169823},
		{3958, 0x3fe4411c4d0c6fc7}, {4271, 0x3fe40542354c1724}, {4735, 0x3fe404636c89d6f4},
		{216, 0x3fe3dda34534b0b5}, {2325, 0x3fe3c8eabe96861a}, {2630, 0x3fe39bfc7fd22a9b},
		{4254, 0x3fe3990eed93c40e}, {1081, 0x3fe3904894d12f65}, {668, 0x3fe3489b68846f89},
		{2071, 0x3fe337cc64c9b2f4}, {4327, 0x3fe328ccb5891e25}, {1252, 0x3fe2ffb08a52f9bc},
		{3619, 0x3fe2fd595b875774}, {322, 0x3fe2cee95bee8af0}, {3434, 0x3fe2bb8ce86b8a82},
		{1452, 0x3fe29d134efa512b}, {2930, 0x3fe28ef23f6f9602}, {888, 0x3fe2731568e55ecd},
		{3417, 0x3fe26a44e1527da8}, {1224, 0x3fe2528e2d230a54}, {691, 0x3fe24378f6cfef28},
		{3829, 0x3fe23bfdb6d94d16}, {2434, 0x3fe220b94e76a09e}, {3285, 0x3fe2088096701c5b},
		{595, 0x3fe1e58c4b5dd634}, {1697, 0x3fe1d64f52a456e1}, {3707, 0x3fe1b142543f8832},
		{1399, 0x3fe1ac14b817fdda}, {4576, 0x3fe1a2bb4a1ed6a2}, {4105, 0x3fe1839005e73d72},
		{2917, 0x3fe17df5ac1fccfb}, {1118, 0x3fe17c97477085ff}, {136, 0x3fe16410e9d5d005},
		{1773, 0x3fe15d31f55574c3}, {4652, 0x3fe12096b46aaa18}, {3002, 0x3fe1181c35b1caa3},
		{186, 0x3fe10e93ead7e084}, {3814, 0x3fe0ff1bd5fd0fb6}, {182, 0x3fe0f116bbae5e44},
		{2124, 0x3fe0e553fe72d39b}, {4754, 0x3fe0e0c8fc16c9fc}, {827, 0x3fe0b83ab05bb6a5},
		{4042, 0x3fe0b169920ed4bc}, {4758, 0x3fe0929b88d8be57}, {2683, 0x3fe087f23857b6e7},
		{2395, 0x3fe07d0934742c87}, {4949, 0x3fe06ebea8b87d0c}, {4702, 0x3fe06c61d794684b},
		{1412, 0x3fe065ec03751e2a}, {2545, 0x3fe031b10fbb1a68}, {3649, 0x3fdfc199005cabe2},
		{549, 0x3fdf316d74f88f31}, {4269, 0x3fdf2d928932145b}, {4486, 0x3fdecbafac133184},
		{4297, 0x3fdeba36eb7aee13}, {4058, 0x3fde7b53d6b1ec3d}, {2436, 0x3fde4f6f073890c9},
		{4893, 0x3fde4282fbe95927}, {1783, 0x3fde3c9128737b6a}, {1104, 0x3fde3b4c55797ce5},
		{1107, 0x3fde051180072791}, {1811, 0x3fddf00962814fbd}, {1087, 0x3fddeacb804b7e91},
		{3450, 0x3fdd93fa95277d0d}, {511, 0x3fdd702d87e2c232}, {1759, 0x3fdd54146b00d124},
		{592, 0x3fdd27637f249cd1}, {340, 0x3fdd125734f58eec}, {4863, 0x3fdcf64448ff9f10},
		{4839, 0x3fdc934cb2759c67}, {4952, 0x3fdc7ba7a94317c0}, {3449, 0x3fdc67069d88eae9},
		{472, 0x3fdc36ac13f214b3}, {4295, 0x3fdbb4d690167bef}, {4002, 0x3fdb92bf2a98e80c},
		{910, 0x3fdb77ab06d9dde1}, {3429, 0x3fdb5439ee5028f3}, {1364, 0x3fdaeaa3ffb7aaab},
		{1614, 0x3fdac698f425fe4d}, {3185, 0x3fdabf73dca6850b}, {2198, 0x3fdab8c4fea7e1c5},
		{4167, 0x3fda892058019a28}, {3081, 0x3fda49d75e7406a3}, {2258, 0x3fda2ecc65025b7d},
		{4051, 0x3fda28fd8da41d67}, {2523, 0x3fda070b30daeaa5}, {4470, 0x3fda055414abbb6e},
		{853, 0x3fd9fc3a984a8f39}, {2004, 0x3fd9cb35d16f0aa8}, {4447, 0x3fd99387e7a71532},
		{2266, 0x3fd9776ea36d9102}, {2392, 0x3fd976dbb1297346}, {1929, 0x3fd9418bf9e5deb0},
		{1166, 0x3fd9323fa417dc03}, {4612, 0x3fd90130833cf351}, {440, 0x3fd879f39d83d204},
		{3849, 0x3fd807f6b292ff5f}, {4296, 0x3fd80367914464e1}, {2225, 0x3fd7fc7ba2cd26ec},
		{3934, 0x3fd7f7bf29408488}, {1041, 0x3fd7e3ad0c0b7345}, {3631, 0x3fd7bc3dd64c557e},
		{4409, 0x3fd6b169ab9e55e0}, {17, 0x3fd69b692e5d7967}, {4324, 0x3fd69882e9634092},
		{3670, 0x3fd6918dc72fb6e5}, {1890, 0x3fd62ef3e570b803}, {1886, 0x3fd5fd81687d6c5d},
		{3405, 0x3fd5f4d752e8fc0d}, {4218, 0x3fd5a265b740c1da}, {962, 0x3fd5840e91927ff6},
		{104, 0x3fd5835634402587}, {4366, 0x3fd553040c764dfb}, {1235, 0x3fd54617a9df28b0},
		{1070, 0x3fd520130eaa2fd9}, {1598, 0x3fd4dc654e16d52e}, {2965, 0x3fd4b95a8f94edba},
		{505, 0x3fd44e9748dafe64}, {3242, 0x3fd42f258a12bbf2}, {1360, 0x3fd3fbcdebbb0c59},
		{4156, 0x3fd3b2efda0905b8}, {1889, 0x3fd3a5c9c2724dce}, {3776, 0x3fd3909dad91336b},
		{2652, 0x3fd370c51de67d58}, {4675, 0x3fd31e8658ab5a73}, {2627, 0x3fd2e7578e2a1de8},
		{198, 0x3fd2e0b571d74dfd}, {637, 0x3fd2e033f3116b6a}, {4641, 0x3fd2b4f7a800378c},
		{818, 0x3fd26982818387d2}, {3438, 0x3fd21a5ae65d58e7}, {813, 0x3fd21a379df1b25b},
		{2310, 0x3fd1ef0d8310af06}, {920, 0x3fd1d6c6aa71f7b1}, {2137, 0x3fd1c7537169fd59},
		{2575, 0x3fd19ca5d4cbc28d}, {2960, 0x3fd16aedf4bf08f7}, {4983, 0x3fd160fd78857531},
		{351, 0x3fd15c1d43aa6768}, {857, 0x3fd1590d015428c1}, {3586, 0x3fd14758566a54df},
		{4533, 0x3fd13b4c59990f6a}, {4119, 0x3fd1201130b88294}, {3355, 0x3fd11f7cf91be40c},
		{2345, 0x3fd0f45f4d2c9d89}, {3710, 0x3fd0cf797b778210}, {2777, 0x3fd0c60c807a5fdc},
		{163, 0x3fd0b57719fa457d}, {4733, 0x3fd0b3f4733ceb95}, {1347, 0x3fd0ae40b40e98af},
		{2767, 0x3fd097cfa2e3bd09}, {3749, 0x3fd08bedd242daaa}, {4377, 0x3fd04a342d903549},
		{836, 0x3fd0445628d409ed}, {265, 0x3fd030bb571484ea}, {2118, 0x3fcffe4d8acceabf},
		{2780, 0x3fcfef9045e75157}, {3636, 0x3fcfe0b77b2301cf}, {1629, 0x3fcf69df97c14f12},
		{3773, 0x3fcee0639879281a}, {1885, 0x3fcea3560f5f4655}, {3017, 0x3fce92a8860d3512},
		{1147, 0x3fce70fd053df3b3}, {4010, 0x3fce4b57ee936f30}, {1836, 0x3fce2c516d368533},
		{70, 0x3fce0c5d10186fe8}, {3488, 0x3fcde5ebcec8b3cc}, {233, 0x3fcdc08f0cbc9d99},
		{2893, 0x3fcd80b6b457e302}, {4212, 0x3fcd7a679a7b3709}, {4906, 0x3fcd3a194b4fdb44},
		{598, 0x3fcd25a28a95b8c6}, {905, 0x3fcd24f6450c5976}, {1673, 0x3fcd12a6605006a3},
		{4451, 0x3fccc06189a23063}, {4782, 0x3fcc91e036fd89b1}, {4201, 0x3fcc615970ff911a},
		{4126, 0x3fcb19738d9ff3bb}, {803, 0x3fcb10567b52f940}, {2813, 0x3fcad9083eeae4aa},
		{2426, 0x3fca6f6b9e367bd7}, {475, 0x3fc9b8463bbfa0bb},
	},
	{
		{4444, 0x3fef15d4cce64521}, {4146, 0x3fea2525e77b3327}, {206, 0x3fe85d39e76bada2},
		{2624, 0x3fe7486ec891254a}, {774, 0x3fe6d4524e07dc44}, {668, 0x3fe3489b68846f89},
		{3829, 0x3fe23bfdb6d94d16}, {3285, 0x3fe2088096701c5b}, {1236, 0x3fdc0f58a0c5d1cb},
		{1364, 0x3fdaeaa3ffb7aaab}, {1118, 0x3fd84c27b966e63f}, {17, 0x3fd69b692e5d7967},
		{4675, 0x3fd31e8658ab5a73}, {2627, 0x3fd2e7578e2a1de8}, {2137, 0x3fd1c7537169fd59},
		{3355, 0x3fd11f7cf91be40c}, {1420, 0x3fcd82c3dcc72c3b}, {1347, 0x3fcad692508c57e9},
	},
}
