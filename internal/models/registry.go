package models

import "strings"

// Name → builder registry shared by the CLI tools (cmd/iosopt, cmd/iosviz,
// cmd/iosserve) and the serving layer, so every surface accepts the same
// model names.

// ZooEntry describes one network of the model zoo.
type ZooEntry struct {
	// Name is the canonical lookup key ("inception", "randwire", ...).
	Name string
	// Display is the paper's display name ("Inception V3", ...).
	Display string
	// Aliases are additional accepted spellings.
	Aliases []string
	// Build constructs the network at a batch size.
	Build Builder
}

// Zoo lists every network reachable by name, the paper's four benchmarks
// first, in a stable order. The slice is the caller's.
func Zoo() []ZooEntry { return append([]ZooEntry(nil), zoo...) }

var zoo = []ZooEntry{
	{Name: "inception", Display: "Inception V3", Aliases: []string{"inception_v3", "inceptionv3"}, Build: InceptionV3},
	{Name: "randwire", Display: "RandWire", Build: RandWire},
	{Name: "nasnet", Display: "NasNet", Aliases: []string{"nasneta", "nasnet-a"}, Build: NasNetA},
	{Name: "squeezenet", Display: "SqueezeNet", Build: SqueezeNet},
	{Name: "resnet34", Display: "ResNet-34", Build: ResNet34},
	{Name: "resnet50", Display: "ResNet-50", Build: ResNet50},
	{Name: "vgg16", Display: "VGG-16", Build: VGG16},
	{Name: "mobilenetv2", Display: "MobileNetV2", Aliases: []string{"mobilenet"}, Build: MobileNetV2},
	{Name: "shufflenet", Display: "ShuffleNet", Build: ShuffleNet},
	{Name: "inception-e", Display: "Inception E block", Aliases: []string{"inceptione"}, Build: InceptionE},
	{Name: "fig2", Display: "Figure-2 block", Aliases: []string{"figure2"}, Build: Figure2Block},
}

// zooByName maps every lower-case spelling EntryByName accepts to its
// entry's index in zoo; of two entries spelled alike, the first wins.
var zooByName = func() map[string]int {
	m := make(map[string]int)
	for i, e := range zoo {
		for _, name := range append([]string{e.Name, strings.ToLower(e.Display)}, e.Aliases...) {
			if _, taken := m[name]; !taken {
				m[name] = i
			}
		}
	}
	return m
}()

// ZooNames returns the canonical names in Zoo order.
func ZooNames() []string {
	entries := Zoo()
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return names
}

// ByName resolves a model name (canonical, alias, or display, matched
// case-insensitively) to its builder.
func ByName(name string) (Builder, bool) {
	e, ok := EntryByName(name)
	if !ok {
		return nil, false
	}
	return e.Build, true
}

// EntryByName resolves a model name to its full zoo entry.
func EntryByName(name string) (ZooEntry, bool) {
	i, ok := zooByName[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return ZooEntry{}, false
	}
	return zoo[i], true
}
